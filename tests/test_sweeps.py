"""The sigma, p and (s, p, q) sweeps of the peetre, fefferman-stein and frame audits.

Each of these audits takes its swept parameter as a sequence and computes
the seeded inputs and their parameter-free maximal or frame work once per
call.  The tests below pin that sharing: a sweep gives the bytes of one call
per value and the tables of an unshared reference, every shared quantity is
computed once per (grid, band, trial) in each call and again in the next
call, and a bad value anywhere in a sweep is rejected before any input is
drawn.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusfs import cli, maximal, spaces
from torusfs.grid import Grid, GridFunction
from torusfs.littlewood_paley import LPPartition
from torusfs.maximal import PeetreParams, band_limited_function, dyadic_sharp, hl_maximal, peetre_maximal
from torusfs.spaces import SpaceParams, build_phi_family, phi_analyze, sequence_norm, triebel_norm

PEETRE = {"bands": 2, "trials": 3, "t": 1.0, "ns": (128, 256)}
FEFFERMAN_STEIN = {"trials": 3, "ns": (64, 128)}
FRAME = {"trials": 2, "ns": (128, 256)}
SIGMAS = (1.5, 0.5, 4.0)  # at sigma = 4 a random trial often beats the spike of trial 0
PS = (1.5, 2.0, 4.0)
SPS = (SpaceParams(0.0, 2.0, 2.0), SpaceParams(0.5, 1.0, 2.0), SpaceParams(-0.3, 3.0, 1.5))


def _peetre_table(sigma, seed):
    """The audit's table with every input and maximal function drawn afresh for each sigma."""
    rows = []
    for n in PEETRE["ns"]:
        grid = Grid(1, n)
        for k in range(3, 3 + PEETRE["bands"]):
            best = 0.0
            for trial in range(PEETRE["trials"]):
                rng = np.random.default_rng([seed, k, trial])
                u = band_limited_function(grid, 2.0 ** (k + 1), rng, kind="spike" if trial == 0 else "random")
                num = peetre_maximal(u, PeetreParams(sigma, 2.0**k)).samples.real
                best = max(best, maximal._safe_ratio_max(num, hl_maximal(u, "centered", PEETRE["t"]).samples.real))
            rows.append({"n": n, "band": k, "constant": best})
    return rows


def _fefferman_stein_table(p, seed):
    rows = []
    for n in FEFFERMAN_STEIN["ns"]:
        grid = Grid(1, n)
        best = 0.0
        for trial in range(FEFFERMAN_STEIN["trials"]):
            f = band_limited_function(grid, 24.0, np.random.default_rng([seed, trial]), kind="random")
            spec = f.spectrum.copy()
            spec[0] = 0.0
            f = GridFunction.from_spectrum(grid, spec)
            den = GridFunction.from_samples(grid, dyadic_sharp(f).samples.real).lp_norm(p)
            best = max(best, hl_maximal(f, "dyadic", 1.0).lp_norm(p) / den)
        rows.append({"n": n, "constant": best})
    return rows


def _frame_table(sp, seed):
    fam = build_phi_family()
    partition = LPPartition(J=5)
    rows = []
    for n in FRAME["ns"]:
        grid = Grid(1, n)
        ratios = []
        for trial in range(FRAME["trials"]):
            f = band_limited_function(grid, 0.9 * fam.coverage_radius(6), np.random.default_rng([seed, trial]), kind="random")
            ratios.append(sequence_norm(phi_analyze(f, fam, 6), sp) / triebel_norm(f, partition, sp))
        lo, hi = min(ratios), max(ratios)
        rows.append({"n": n, "ratio_min": lo, "ratio_max": hi, "C": max(hi, 1.0 / lo)})
    return rows


SWEEPS = {
    "peetre": (lambda values, seed: maximal.audit_peetre_domination(sigmas=values, seed=seed, **PEETRE), SIGMAS, _peetre_table),
    "fefferman-stein": (lambda values, seed: maximal.audit_fefferman_stein(ps=values, seed=seed, **FEFFERMAN_STEIN), PS, _fefferman_stein_table),
    "frame": (lambda values, seed: spaces.norm_equivalence_audit(FRAME["trials"], values, ns=FRAME["ns"], seed=seed), SPS, _frame_table),
}


@settings(deadline=None, max_examples=4)
@given(st.integers(0, 2**20))
def test_sweep_matches_single_value_calls_and_unshared_reference(seed):
    for name, (audit, values, reference) in SWEEPS.items():
        swept = audit(values, seed)
        singles = [rep for v in values for rep in audit((v,), seed)]
        assert [rep.to_json() for rep in swept] == [rep.to_json() for rep in singles], name
        assert [rep.table for rep in swept] == [reference(v, seed) for v in values], name


def _counting(monkeypatch, module, name, counts, label=None, stack=False):
    """Count each call of module.name under label(*args), or each line of its first argument for a stack kernel."""
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        counts[label(*args, **kwargs) if label else name] += len(args[0]) if stack else 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_sweeps_compute_each_shared_quantity_once_per_call(tmp_path, monkeypatch):
    # defaults: 2 grids x 3 bands x 10 trials (peetre), 2 grids x 30 trials (fefferman-stein), 2 grids x 20 trials (frame)
    expected = {
        "peetre": {"_band_spectrum": 60, "_hl_lines(centered)": 60, "_peetre_lines": 120},
        "fefferman-stein": {"_band_spectrum": 60, "_hl_lines(dyadic)": 60, "_sharp_lines": 60},
        "frame": {"_band_spectrum": 40, "phi_analyze": 40, "_band_stack": 40},
    }
    counts = Counter()
    _counting(monkeypatch, maximal, "_hl_lines", counts, lambda a, variant, t: f"_hl_lines({variant})", stack=True)
    for name in ("_peetre_lines", "_sharp_lines"):
        _counting(monkeypatch, maximal, name, counts, stack=True)
    for module, name in ((maximal, "_band_spectrum"), (spaces, "phi_analyze"), (spaces, "_band_stack")):
        _counting(monkeypatch, module, name, counts)
    for suite, count in expected.items():
        for _ in range(2):  # a second call draws and computes everything again
            counts.clear()
            assert cli.main(["audit", "--suite", suite, "--seed", "0", "--outdir", str(tmp_path)]) == 0
            assert dict(counts) == count, suite


@pytest.mark.parametrize(
    "audit, message",
    [
        (lambda: maximal.audit_peetre_domination(sigmas=(1.5, 0.5, 0.0)), "sigma and t must be positive"),
        (lambda: maximal.audit_peetre_domination(sigmas=(1.5, 0.5), t=-1.0), "sigma and t must be positive"),
        (lambda: maximal.audit_fefferman_stein(ps=(1.5, 2.0, 1.0)), "p must be > 1"),
        (lambda: spaces.norm_equivalence_audit(2, (SpaceParams(0.0, 2.0, 2.0), SpaceParams(0.0, np.inf, 2.0))), "p < inf required"),
    ],
    ids=["peetre-sigma", "peetre-t", "fefferman-stein-p", "frame-triple"],
)
def test_sweeps_check_every_value_before_any_work(monkeypatch, audit, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("an input was drawn before every swept value was checked")

    monkeypatch.setattr(maximal, "_band_spectrum", unreachable)
    with pytest.raises(ValueError, match=message):
        audit()
