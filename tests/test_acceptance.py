"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to watch
them live).  Budgeted runtimes are asserted where the criterion pins one.
The two growth experiments dominate the wall time (minutes, not seconds).
"""

import json
import time

import numpy as np
import pytest

from torusfs.experiments import (
    LacunaryConfig,
    RandomAtomConfig,
    bspace_growth_experiment,
    fspace_growth_experiment,
    khintchine_audit,
    khintchine_constants,
)
from torusfs.grid import GridFunction, make_grid
from torusfs.littlewood_paley import build_partition, check_partition
from torusfs.maximal import audit_fefferman_stein, audit_peetre_domination, band_limited_function
from torusfs.pseudo import (
    Symbol,
    apply,
    audit_single_band,
    band_symbol,
    decompose_paradiff,
    fourier_series_identity_check,
    seminorm,
)
from torusfs.spaces import (
    CoeffField,
    SpaceParams,
    atomic_decompose,
    build_phi_family,
    is_infty_atom,
    norm_equivalence_audit,
    phi_analyze,
    phi_synthesize,
    sequence_norm,
)

WORKERS = 2


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_spectral_core():
    t0 = time.time()
    grid = make_grid(1, 256)
    worst_parseval = worst_round = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = GridFunction.from_samples(grid, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        lhs = np.sum(np.abs(f.samples) ** 2) * grid.cell_volume
        rhs = np.sum(np.abs(f.spectrum) ** 2)
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / lhs)
        back = GridFunction.from_spectrum(grid, f.spectrum)
        worst_round = max(worst_round, np.max(np.abs(back.samples - f.samples)) / np.max(np.abs(f.samples)))
    partition = check_partition(build_partition(10), samples=100_000)
    elapsed = time.time() - t0
    ok = worst_parseval < 1e-10 and worst_round < 1e-12 and partition.constant < 1e-12 and elapsed < 10.0
    _verdict(1, "spectral core", ok,
             f"parseval {worst_parseval:.1e}, roundtrip {worst_round:.1e}, partition {partition.constant:.1e}, {elapsed:.1f}s")


def test_criterion_02_windowed_square_sum_identity():
    grid = make_grid(1, 32)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        g = GridFunction.from_samples(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        width = rng.uniform(0.02, 0.2)
        psi = GridFunction.from_spectrum(grid, np.exp(-width * grid.freq_radii() ** 2).astype(complex))
        rep = fourier_series_identity_check(g, psi, tol=1e-10)
        worst = max(worst, rep.details["relative"])
        if not rep.passed:
            break
    _verdict(2, "windowed square-sum identity", rep.passed and worst <= 1e-10, f"max rel discrepancy {worst:.1e}")


def test_criterion_03_sign_sum_moments():
    ok = True
    rep = khintchine_audit(np.array([0.3, -1.2, 0.7, 2.0, -0.4]), 2.0)
    ok &= abs(rep.constant - 1.0) < 1e-12
    rep = khintchine_audit([1.0, 1.0], 1.0)
    ok &= abs(rep.constant - 2**-0.5) < 1e-14
    rng = np.random.default_rng(7)
    worst = {1.0: (np.inf, 0.0), 4.0: (np.inf, 0.0)}
    for p in (1.0, 4.0):
        lo, hi = khintchine_constants(p)
        for _ in range(50):
            coeffs = rng.standard_normal(int(rng.integers(13, 30)))  # Monte Carlo branch
            rep = khintchine_audit(coeffs, p, draws=20000, seed=int(rng.integers(1 << 30)))
            ok &= rep.passed
            worst[p] = (min(worst[p][0], rep.constant), max(worst[p][1], rep.constant))
        ok &= lo * 0.95 <= worst[p][0] and worst[p][1] <= hi * 1.05
    _verdict(3, "sign-sum moment comparability", ok,
             f"p=1 ratios {worst[1.0][0]:.3f}..{worst[1.0][1]:.3f}, p=4 {worst[4.0][0]:.3f}..{worst[4.0][1]:.3f}")


def test_criterion_04_maximal_suite():
    above, below = audit_peetre_domination(bands=3, trials=10, sigmas=(1.5, 0.5), t=1.0, ns=(256, 512), seed=1)
    ok = above.passed and above.details["doubling_drift"] <= 0.10 and not below.passed
    drifts = []
    for rep in audit_fefferman_stein(ps=(1.5, 2.0, 4.0), trials=40, ns=(128, 256), seed=2):
        drifts.append(rep.details["doubling_drift"])
        ok &= rep.passed and rep.details["doubling_drift"] <= 0.10
    _verdict(4, "maximal inequalities", ok,
             f"peetre drift {above.details['doubling_drift']:.3f}, necessity flagged {not below.passed}, "
             f"sharp-maximal drifts {[round(d, 3) for d in drifts]}")


def test_criterion_05_frame_transform_and_atoms():
    fam = build_phi_family()
    grid = make_grid(1, 128)
    worst_rt = 0.0
    for seed in range(25):
        f = band_limited_function(grid, 14.0, np.random.default_rng(seed))
        back = phi_synthesize(phi_analyze(f, fam, 6), fam, grid)
        worst_rt = max(worst_rt, np.max(np.abs(back.samples - f.samples)) / np.max(np.abs(f.samples)))
    ok = worst_rt < 1e-8
    intervals = []
    for rep in norm_equivalence_audit(50, (SpaceParams(0.0, 2.0, 2.0), SpaceParams(0.5, 1.0, 2.0), SpaceParams(-0.3, 3.0, 1.5)), seed=3):
        intervals.append((round(rep.table[-1]["ratio_min"], 3), round(rep.table[-1]["ratio_max"], 3)))
        ok &= rep.passed
    sp = SpaceParams(0.2, 0.7, 1.0)
    ctrl = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(12):
            k = int(rng.integers(0, 5))
            pairs.append((k, int(rng.integers(0, 2**k)), complex(rng.standard_normal(), rng.standard_normal())))
        levels = [np.zeros(2**k, dtype=complex) for k in range(max(k for k, _, _ in pairs) + 1)]
        for k, off, v in pairs:
            levels[k][off] = v  # a later draw of the same cube overwrites
        b = CoeffField(1, levels)
        dec = atomic_decompose(b, sp)
        rec = dec.reconstruct(1)
        ok &= len(rec.levels) == len(b.levels)
        ok &= max(np.max(np.abs(r - level)) for r, level in zip(rec.levels, b.levels)) < 1e-12
        ok &= all(is_infty_atom(a, Q, sp) for a, Q in zip(dec.atoms, dec.cubes))
        ctrl.append(dec.scalar_lp(sp.p) / sequence_norm(b, sp))
    _verdict(5, "frame transform and atoms", ok,
             f"roundtrip {worst_rt:.1e}, equivalence intervals {intervals}, lp control {min(ctrl):.2f}..{max(ctrl):.2f}")


def test_criterion_06_band_interaction_split():
    grid = make_grid(1, 256)
    part = build_partition(6)
    x = grid.axis_coords()[:, None]
    xi = grid.axis_freqs()[None, :]
    table = (1.0 + 0.5 * np.sin(2 * np.pi * x)) * np.cos(xi / 9.0) + 0.3j * np.cos(2 * np.pi * x)
    a = Symbol.from_table(grid, table, 0.0, "wavy")
    dec = decompose_paradiff(a, part, grid)
    residual = np.max(np.abs(dec.pieces[0].table + dec.pieces[1].table + dec.pieces[2].table - table))
    ok = residual < 1e-10
    semis = [seminorm(dec.bands[k], 0, 0, m=0.0) for k in range(3, part.J + 1)]
    uniform = max(semis) <= 2.0 * np.median(semis)
    ok &= uniform
    worst_leak = 0.0
    f = band_limited_function(grid, 60.0, np.random.default_rng(0))
    for k in range(3, part.J + 1):
        out = apply(band_symbol(a, part, k, grid), f, check=False)
        radii = grid.freq_radii()
        outside = (radii < 2.0 ** (k - 2)) | (radii > 2.0 ** (k + 2))
        worst_leak = max(worst_leak, float(np.abs(out.spectrum[outside]).max() / np.abs(out.spectrum).max()))
    ok &= worst_leak < 1e-10
    _verdict(6, "band-interaction split", ok,
             f"telescoping {residual:.1e}, seminorm spread x{max(semis)/min(semis):.2f}, leakage {worst_leak:.1e}")


def test_criterion_07_single_band_exponents():
    t0 = time.time()
    grid = make_grid(1, 4096)
    part = build_partition(9)
    slopes = {}
    ok = True
    for m in (0.0, -0.5):
        rep = audit_single_band(Symbol.bessel(m), 2.0, ks=(3, 4, 5, 6, 7, 8), grid=grid, partition=part)
        slopes[m] = rep.details["slope"]
        ok &= rep.details["exact"] and abs(rep.details["slope"] - m) <= 0.1
    probe = audit_single_band(
        Symbol.sin_sin(), np.inf, ks=(3, 4, 5, 6), trials=10, grid=make_grid(1, 512), partition=build_partition(7)
    )
    ok &= probe.details["slope"] <= 0.0 + 0.5 + 0.15
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    _verdict(7, "single-band exponents", ok,
             f"slopes m=0: {slopes[0.0]:.3f}, m=-1/2: {slopes[-0.5]:.3f}, sup-norm probe {probe.details['slope']:.3f}, {elapsed:.1f}s")


def test_criterion_08_mixed_norm_divergence():
    t0 = time.time()
    p, q, t = 2.0, 2.0, 1.0
    m = -1.0 * (1.0 / p - 0.5)  # critical order, = 0 at p = 2
    lac = LacunaryConfig(L=8, spacing=2, m=m, seed=20250810)
    atoms = RandomAtomConfig(L=8, spacing=2, p=p, seed=20250810)
    rep = fspace_growth_experiment(lac, atoms, p, q, t, draws=200, workers=WORKERS)
    elapsed = time.time() - t0
    ok = (
        rep.details["input_slope"] <= 1.0 / p + 0.15
        and rep.details["output_slope"] >= 1.0 / t - 0.15
        and elapsed < 600.0
    )
    _verdict(8, "mixed-norm divergence", ok,
             f"input slope {rep.details['input_slope']:.3f} <= {1/p + 0.15}, "
             f"output slope {rep.details['output_slope']:.3f} >= {1/t - 0.15}, {elapsed:.0f}s")


def test_criterion_09_band_norm_divergence():
    t0 = time.time()
    p, q, t = 2.0, 2.0, 1.0
    lac = LacunaryConfig(L=8, spacing=2, m=-abs(0.5 - 1.0 / p), seed=20250810)
    atoms = RandomAtomConfig(L=8, spacing=2, p=p, seed=20250810)
    rep = bspace_growth_experiment(lac, atoms, p, q, t, draws=100, workers=WORKERS)
    elapsed = time.time() - t0
    designed = rep.details["designed_exponent"]
    ok = (
        rep.details["input_drift"] <= 0.10
        and rep.details["output_slope"] >= designed - 0.05
        and elapsed < 300.0
    )
    _verdict(9, "band-norm divergence", ok,
             f"input drift {rep.details['input_drift']:.3f}, output slope {rep.details['output_slope']:.3f} "
             f">= {designed - 0.05}, {elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path):
    from torusfs.cli import main

    outputs = []
    for sub in ("first", "second"):
        outdir = tmp_path / sub
        code = main(["audit", "--suite", "khintchine", "--seed", "11", "--outdir", str(outdir)])
        assert code == 0
        blobs = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        outputs.append(blobs)
    identical = outputs[0] == outputs[1]
    lac = LacunaryConfig(L=5, spacing=1, m=0.0, seed=77)
    atoms = RandomAtomConfig(L=5, spacing=1, p=2.0, seed=77)
    rep_serial = fspace_growth_experiment(lac, atoms, 2.0, 2.0, 1.0, draws=16, workers=1)
    rep_pool = fspace_growth_experiment(lac, atoms, 2.0, 2.0, 1.0, draws=16, workers=2)
    identical &= rep_serial.to_json() == rep_pool.to_json()
    _verdict(10, "determinism", identical, "byte-identical reports across reruns and worker counts")
