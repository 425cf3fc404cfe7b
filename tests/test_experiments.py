import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import torusfs
from torusfs import experiments, littlewood_paley
from torusfs.grid import Grid, GridFunction, make_grid
from torusfs.littlewood_paley import LPPartition, build_partition, cached, clear_tables, radial_table, scatter
from torusfs.experiments import (
    LacunaryConfig,
    RandomAtomConfig,
    atom_train_spectrum,
    bspace_growth_experiment,
    fspace_growth_experiment,
    khintchine_audit,
    khintchine_constants,
    lacunary_coeffs,
    lacunary_test_function,
    multiplier_on_lattice,
    oscillatory_multiplier,
    rademacher_multiplier,
    rademacher_signs,
    random_atom_train,
    reproducing_profile,
)
from torusfs.pseudo import seminorm


def test_config_validation():
    with pytest.raises(ValueError):
        LacunaryConfig(L=2, k0=3)
    with pytest.raises(ValueError):
        LacunaryConfig(L=5, spacing=0)
    # both configurations share one scale map: the same checks, and keyword-only fields
    for config in (LacunaryConfig, RandomAtomConfig):
        with pytest.raises(ValueError, match="d must be 1 or 2"):
            config(L=4, d=3)
        with pytest.raises(TypeError):
            config(5, 2, 0.5)
    cfg = LacunaryConfig(L=5, spacing=2)
    assert list(cfg.scales()) == [3, 4, 5]
    assert cfg.shell_bounds(3) == (2**8, 2**9)
    # shells pairwise disjoint even at spacing 1
    cfg1 = LacunaryConfig(L=6, spacing=1)
    bounds = [cfg1.shell_bounds(k) for k in cfg1.scales()]
    for (lo1, hi1), (lo2, hi2) in zip(bounds, bounds[1:]):
        assert hi1 <= lo2


def test_oscillatory_multiplier_values():
    sym = oscillatory_multiplier(-0.5, 0.5)
    assert abs(sym.fn(None, (np.array([0.0]),))[0] - 1.0) < 1e-15
    xi = np.linspace(-40, 40, 401)
    vals = sym.fn(None, (xi,))
    assert np.max(np.abs(np.abs(vals) - (1 + xi**2) ** -0.25)) < 1e-13
    with pytest.raises(ValueError):
        oscillatory_multiplier(0.0, 1.0)


def test_oscillatory_symbol_class_estimate():
    # the rho-weighted first differences stay bounded out to |xi| = 2^8;
    # the kink of |xi|^(1/2) at zero is excluded by the even symmetry
    sym = oscillatory_multiplier(0.0, 0.5)
    val = seminorm(sym, 1, 0, m=0.0, rho=0.5, xi_max=256.0, check=False)
    assert val < 2 * np.pi
    val2 = seminorm(sym, 2, 0, m=0.0, rho=0.5, xi_max=256.0, check=False)
    assert np.isfinite(val2)


def test_rademacher_multiplier_support_and_values():
    cfg = LacunaryConfig(L=4, spacing=2, m=-0.25, seed=5)
    sym = rademacher_multiplier(cfg, draw=1)
    # far from every shell
    far = np.array([3.0, 100.0, 2.0**15])
    assert np.max(np.abs(sym.fn(None, (far,)))) == 0.0
    # at a shell point: neighbors n -/+ 1 contribute with the profile at 1
    lp = build_partition(3)
    signs = rademacher_signs(cfg, 1)
    lo, hi = cfg.shell_bounds(3)
    pos, _ = signs[3]
    n0 = lo + 5
    expected = 2.0 ** (cfg.zeta(3) * cfg.m) * (pos[4] * lp.mother(1.0) + pos[5] * lp.mother(0.0) + pos[6] * lp.mother(1.0))
    got = sym.fn(None, (np.array([float(n0)]),))[0]
    assert abs(got - expected) < 1e-12


@settings(max_examples=12, deadline=None)
@given(L=st.integers(3, 6), m=st.sampled_from([0.0, -0.25, -0.5, 0.3]), draw=st.integers(0, 3))
def test_multiplier_lattice_fast_path_matches_closure(L, m, draw):
    cfg = LacunaryConfig(L=L, spacing=2, m=m, seed=5)
    grid = make_grid(1, 2 ** (cfg.zeta(L) + 5))
    fast = multiplier_on_lattice(cfg, grid, draw=draw)
    slow = rademacher_multiplier(cfg, draw=draw).fn(None, (grid.axis_freqs(),))
    assert np.max(np.abs(fast - slow)) == 0.0


def test_rademacher_seminorm_uniform_over_draws():
    cfg = LacunaryConfig(L=5, spacing=1, m=0.0, seed=0)
    vals = [seminorm(rademacher_multiplier(cfg, draw=d), 0, 0, m=0.0, xi_max=300.0, check=False) for d in range(10)]
    assert max(vals) <= 2.0 * min(vals)
    vals1 = [seminorm(rademacher_multiplier(cfg, draw=d), 1, 0, m=0.0, xi_max=300.0, check=False) for d in range(10)]
    assert max(vals1) <= 2.0 * min(vals1)


def test_reproducing_window_profile():
    assert reproducing_profile(3.0) == 1.0
    assert reproducing_profile(0.5) == 0.0
    assert reproducing_profile(16.0) == 1.0
    assert reproducing_profile(33.0) == 0.0


def test_reproducing_identity_on_shells():
    lp = build_partition(3)
    for spacing in (1, 2, 3):
        cfg = LacunaryConfig(L=3, spacing=spacing)
        lo, hi = cfg.shell_bounds(3)
        z = cfg.zeta(3)
        worst = 0.0
        for n0 in range(lo, hi):
            for dx in (-2, -1, 0, 1, 2):
                xi = n0 + dx
                w = lp.mother(abs(xi - n0))
                worst = max(worst, abs(reproducing_profile(xi / 2.0**z) * w - w))
        assert worst < 1e-12


def test_atom_train_zero_draw():
    cfg = RandomAtomConfig(L=3, spacing=2, p=2.0, seed=9)
    grid = make_grid(1, 2 ** (cfg.zeta(3) + 6))
    f = random_atom_train(cfg, grid, draw=0)  # this seed/draw activates nothing
    assert np.max(np.abs(f.samples)) == 0.0


def test_atom_train_single_cube_norm():
    from torusfs.experiments import atom_train_spectrum

    def single_cube_train(L):
        cfg = RandomAtomConfig(L=L, spacing=1, p=2.0, seed=1, k0=L)
        grid = make_grid(1, 2 ** (cfg.zeta(L) + 6))
        for draw in range(80):
            spec, act = atom_train_spectrum(cfg, grid, draw)
            if len(act[L]) == 1:
                return cfg, grid, GridFunction.from_spectrum(grid, spec)
        pytest.fail("no single-cube draw found")

    cfg5, grid5, f5 = single_cube_train(5)
    cfg6, grid6, f6 = single_cube_train(6)
    # change of variables on the lattice: both trains sample the dilated
    # window at the same relative rate, so the norms obey the scaling law
    # ||B G(2^z .)||_p = B 2^(-z/p) ||G||_p up to periodization tails
    for p in (1.0, 2.0, np.inf):
        ratio = f6.lp_norm(p) / f5.lp_norm(p)
        z5, z6 = cfg5.zeta(5), cfg6.zeta(6)
        expected = (cfg6.amplitude(6) / cfg5.amplitude(5)) * 2.0 ** (-(z6 - z5) / p)
        assert abs(ratio - expected) < 1e-6 * expected
    # p = 2 value against an FFT-free spectral quadrature
    z = cfg5.zeta(5)
    xi = np.fft.fftfreq(grid5.n, 1.0 / grid5.n)
    direct = cfg5.amplitude(5) * 2.0**-z * float(np.sqrt(np.sum(reproducing_profile(np.abs(xi) / 2.0**z) ** 2)))
    assert abs(f5.lp_norm(2.0) - direct) < 1e-10 * direct


def test_lacunary_function_examples():
    cfg = RandomAtomConfig(L=3, spacing=2, p=2.0)
    grid = make_grid(1, 2 ** (cfg.zeta(3) + 6))
    # C identically zero
    z = lacunary_test_function(cfg, grid, coeffs={3: 0.0})
    assert np.max(np.abs(z.samples)) == 0.0
    # single term: B norm proportional to the window norm
    from torusfs.spaces import SpaceParams, besov_norm

    g = lacunary_test_function(cfg, grid, coeffs={3: 1.0})
    part = build_partition(int(np.log2(grid.n)) - 2)
    got = besov_norm(g, part, SpaceParams(0.0, 2.0, 2.0, "besov"))
    # single dilated window: the band norm sits inside the partition
    # overlap bracket of its L2 norm, which scales like 2^(zeta d (1 - 1/p))
    direct = g.lp_norm(2.0)
    assert 0.7 * direct <= got <= 1.0001 * direct
    z3 = cfg.zeta(3)
    xi = np.fft.fftfreq(grid.n, 1.0 / grid.n)
    window_l2 = float(np.sqrt(np.sum(reproducing_profile(np.abs(xi) / 2.0**z3) ** 2) * 2.0**-z3))
    assert abs(direct - 2.0 ** (z3 * (1.0 - 1.0 / 2.0)) * window_l2) < 1e-10 * direct


def test_lacunary_two_disjoint_scales_combine_exactly():
    # spacing 7 separates the window supports by more than one full band,
    # so no dyadic band sees both scales and the l^q combination is exact
    cfg = RandomAtomConfig(L=2, spacing=7, p=2.0, k0=1)
    grid = make_grid(1, 2 ** (cfg.zeta(2) + 6))
    part = build_partition(int(np.log2(grid.n)) - 2)
    from torusfs.spaces import SpaceParams, besov_norm

    q = 1.5
    n1 = besov_norm(lacunary_test_function(cfg, grid, coeffs={1: 0.7, 2: 0.0}), part, SpaceParams(0, 2, q, "besov"))
    n2 = besov_norm(lacunary_test_function(cfg, grid, coeffs={1: 0.0, 2: 0.4}), part, SpaceParams(0, 2, q, "besov"))
    both = besov_norm(lacunary_test_function(cfg, grid, coeffs={1: 0.7, 2: 0.4}), part, SpaceParams(0, 2, q, "besov"))
    assert abs(both - (n1**q + n2**q) ** (1 / q)) < 1e-10 * both


def test_khintchine_constants():
    lo, hi = khintchine_constants(2.0)
    assert lo == hi == 1.0
    lo, hi = khintchine_constants(1.0)
    assert abs(lo - 2**-0.5) < 1e-12 and hi == 1.0
    lo, hi = khintchine_constants(4.0)
    assert lo == 1.0 and abs(hi - 3**0.25) < 1e-12


def test_khintchine_exhaustive_cases():
    rep = khintchine_audit([1.0, 1.0], 1.0)
    assert rep.passed and abs(rep.constant - 2**-0.5) < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(5):
        coeffs = rng.standard_normal(rng.integers(2, 12))
        rep = khintchine_audit(coeffs, 2.0)
        assert abs(rep.constant - 1.0) < 1e-12
    rep = khintchine_audit([1, 1, 1, 1], 4.0)
    moment4 = np.mean([abs(a + b + c + d) ** 4 for a in (1, -1) for b in (1, -1) for c in (1, -1) for d in (1, -1)])
    assert abs(rep.constant - moment4**0.25 / 2.0) < 1e-12


def test_khintchine_monte_carlo():
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(40)
    for p in (1.0, 4.0):
        rep = khintchine_audit(coeffs, p, draws=40000, seed=2)
        assert rep.passed
        assert not rep.params["exhaustive"]


def atom_train_image(lac: LacunaryConfig, atoms: RandomAtomConfig, grid: Grid, draw: int = 0) -> GridFunction:
    """Direct spatial synthesis of the multiplier image of a window train.

    Evaluates, active cube by active cube,
    amplitude * 2^{zeta (m - d)} * phi(x - c_Q) * sum_n sign_n e^{2 pi i <x - c_Q, n>},
    with the spatial window phi sampled from its transform.  Exact when the
    shell spacing is at least 3 (the dilated reproducing window then equals
    1 on its own shell and vanishes on every other); the closed-form
    oracle that the spectral application is checked against.
    """
    if lac.spacing < 3 or atoms.spacing != lac.spacing:
        raise ValueError("the closed-form image requires matched shell spacing >= 3")
    if grid.dim != 1 or lac.d != 1:
        raise ValueError("kept one-dimensional")
    mother = radial_table(grid, ("mother", 1), LPPartition(J=3).mother, 0.5, 2.0)
    phi = GridFunction.from_spectrum(grid, scatter(grid, mother).astype(complex)).samples
    x = grid.axis_coords()
    signs = rademacher_signs(lac, draw)
    _, actives = atom_train_spectrum(atoms, grid, draw)
    out = np.zeros(grid.shape, dtype=complex)
    for k in lac.scales():
        z = lac.zeta(k)
        lo, hi = lac.shell_bounds(k)
        pos, neg = signs[k]
        shell = np.arange(lo, hi)
        amp = atoms.amplitude(k) * 2.0 ** (z * (lac.m - 1))
        side = 2.0**-z
        for flat in actives[k]:
            center = (flat + 0.5) * side
            y = x - center
            osc = (pos[None, :] * np.exp(2j * np.pi * np.outer(y, shell))).sum(axis=1)
            osc += (neg[None, :] * np.exp(-2j * np.pi * np.outer(y, shell))).sum(axis=1)
            shift = int(round(center * grid.n))
            out += amp * np.roll(phi, shift) * osc
    return GridFunction.from_samples(grid, out)


def image_shell_leakage(u: GridFunction, lac: LacunaryConfig) -> float:
    """Relative spectrum mass outside the (window-widened) shells."""
    radii = u.grid.freq_radii()
    inside = np.zeros(u.grid.shape, dtype=bool)
    for k in lac.scales():
        lo, hi = lac.shell_bounds(k)
        inside |= (radii >= lo - 2) & (radii <= hi + 2)
    total = float(np.abs(u.spectrum).max())
    if total == 0:
        return 0.0
    return float(np.abs(u.spectrum[~inside]).max() / total)


def test_image_formula_and_hygiene():
    lac = LacunaryConfig(L=2, spacing=3, m=0.0, seed=4, k0=1)
    atoms = RandomAtomConfig(L=2, spacing=3, p=2.0, seed=4, k0=1)
    grid = make_grid(1, 2 ** (atoms.zeta(2) + 6))
    for draw in range(3):
        train = random_atom_train(atoms, grid, draw)
        img_spec = multiplier_on_lattice(lac, grid, draw) * train.spectrum
        img = GridFunction.from_spectrum(grid, img_spec)
        formula = atom_train_image(lac, atoms, grid, draw)
        scale = max(np.max(np.abs(img.samples)), 1e-300)
        assert np.max(np.abs(formula.samples - img.samples)) / scale < 1e-8
        assert image_shell_leakage(img, lac) < 1e-10


def test_image_formula_requires_separated_shells():
    lac = LacunaryConfig(L=3, spacing=2, seed=0)
    atoms = RandomAtomConfig(L=3, spacing=2, seed=0)
    with pytest.raises(ValueError):
        atom_train_image(lac, atoms, make_grid(1, 2**12), 0)


def test_fspace_growth_small():
    lac = LacunaryConfig(L=6, spacing=1, m=0.0, seed=7)
    atoms = RandomAtomConfig(L=6, spacing=1, p=2.0, seed=7)
    rep = fspace_growth_experiment(lac, atoms, p=2.0, q=2.0, t=1.0, draws=100)
    assert rep.passed
    assert rep.details["input_slope"] <= 0.5 + 0.15
    assert rep.details["output_slope"] >= 1.0 - 0.15
    assert rep.details["single_cube_probability_floor"] > 0.15
    # growth curves non-decreasing in L
    outs = [row["output_norm"] for row in rep.table]
    assert all(b >= a * 0.98 for a, b in zip(outs, outs[1:]))


def test_fspace_growth_no_divergence_at_t_eq_p():
    # shells fed by exactly one scale each (spacing >= 3), so the t = p
    # output growth tracks the input growth with no divergence
    lac = LacunaryConfig(L=4, spacing=3, m=0.0, seed=7, k0=1)
    atoms = RandomAtomConfig(L=4, spacing=3, p=2.0, seed=7, k0=1)
    rep = fspace_growth_experiment(lac, atoms, p=2.0, q=2.0, t=2.0, draws=80)
    slopes = rep.details
    assert abs(slopes["input_slope"] - slopes["output_slope"]) < 0.15


def test_fspace_determinism_and_workers():
    lac = LacunaryConfig(L=5, spacing=1, m=0.0, seed=13)
    atoms = RandomAtomConfig(L=5, spacing=1, p=2.0, seed=13)
    rep1 = fspace_growth_experiment(lac, atoms, 2.0, 2.0, 1.0, draws=20)
    rep2 = fspace_growth_experiment(lac, atoms, 2.0, 2.0, 1.0, draws=20)
    rep3 = fspace_growth_experiment(lac, atoms, 2.0, 2.0, 1.0, draws=20, workers=2)
    assert rep1.to_json() == rep2.to_json() == rep3.to_json()


def test_bspace_growth_small():
    lac = LacunaryConfig(L=6, spacing=1, m=0.0, seed=3)
    atoms = RandomAtomConfig(L=6, spacing=1, p=2.0, seed=3)
    rep = bspace_growth_experiment(lac, atoms, p=2.0, q=2.0, t=1.0, draws=40)
    assert rep.passed
    assert rep.details["input_drift"] <= 0.10
    assert rep.details["output_slope"] >= 0.5 - 0.05
    # no divergence designed at t = q: clean shells need spacing >= 3
    lac3 = LacunaryConfig(L=4, spacing=3, m=0.0, seed=3, k0=1)
    atoms3 = RandomAtomConfig(L=4, spacing=3, p=2.0, seed=3, k0=1)
    rep_flat = bspace_growth_experiment(lac3, atoms3, p=2.0, q=2.0, t=2.0, draws=40)
    assert abs(rep_flat.details["output_slope"]) < 0.25


def test_growth_experiments_reject_single_L():
    lac = LacunaryConfig(L=5, spacing=2, seed=0)
    atoms = RandomAtomConfig(L=5, spacing=2, seed=0)
    with pytest.raises(ValueError, match="two top scales"):
        fspace_growth_experiment(lac, atoms, 2.0, 2.0, 1.0, draws=2, L_list=[5])
    with pytest.raises(ValueError, match="two top scales"):
        bspace_growth_experiment(lac, atoms, 2.0, 2.0, 1.0, draws=2, L_list=[5])


@pytest.mark.parametrize("experiment", [fspace_growth_experiment, bspace_growth_experiment])
@pytest.mark.parametrize(
    "lac, atoms, match",
    [
        (LacunaryConfig(L=4, spacing=1), RandomAtomConfig(L=4, spacing=2), "share the scale map"),
        (LacunaryConfig(L=4, spacing=2, k0=3), RandomAtomConfig(L=4, spacing=2, k0=2), "share the scale map"),
        (LacunaryConfig(L=4, spacing=2), RandomAtomConfig(L=4, spacing=2, d=2), "one-dimensional"),
    ],
)
def test_growth_experiments_check_configurations_before_any_work(experiment, lac, atoms, match, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the configurations were checked")

    monkeypatch.setattr(experiments, "_tables_for", no_work)
    monkeypatch.setattr(experiments, "_run_tasks", no_work)
    with pytest.raises(ValueError, match=match):
        experiment(lac, atoms, 2.0, 2.0, 1.0, draws=2)


def test_fspace_growth_rejects_infinite_p_before_any_work(monkeypatch):
    # each draw's norms enter the p-th moment as norm**p, which is inf or 0 at p = inf
    def no_work(*args):
        raise AssertionError("work started before p was checked")

    monkeypatch.setattr(experiments, "_tables_for", no_work)
    monkeypatch.setattr(experiments, "_run_tasks", no_work)
    lac, atoms = LacunaryConfig(L=4, spacing=2), RandomAtomConfig(L=4, spacing=2, p=np.inf)
    with pytest.raises(ValueError, match="p must be finite for the p-th moment, got inf"):
        fspace_growth_experiment(lac, atoms, np.inf, 2.0, 1.0, draws=2)


@pytest.mark.parametrize("experiment", [fspace_growth_experiment, bspace_growth_experiment])
@pytest.mark.parametrize("workers", [0, -3])
def test_growth_experiments_reject_workers_below_one_before_any_work(experiment, workers, monkeypatch):
    def no_work(*args):
        raise AssertionError("work started before the worker count was checked")

    monkeypatch.setattr(experiments, "_tables_for", no_work)
    monkeypatch.setattr(experiments, "_run_tasks", no_work)
    lac, atoms = LacunaryConfig(L=4, spacing=2), RandomAtomConfig(L=4, spacing=2)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        experiment(lac, atoms, 2.0, 2.0, 1.0, draws=2, workers=workers)


_NO_SCIPY_SCRIPT = """
import sys

class NoScipy:  # inherited by forked pool workers: a scipy import anywhere fails the run
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} imported by a growth experiment")

sys.meta_path.insert(0, NoScipy())
from torusfs.experiments import LacunaryConfig, RandomAtomConfig, {name}
lac, atoms = LacunaryConfig(L=4, spacing=2, seed=3), RandomAtomConfig(L=4, spacing=2, seed=3)
{name}(lac, atoms, 2.0, 2.0, 1.0, draws=1, L_list=[3, 4], workers={workers})
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["fspace_growth_experiment", "bspace_growth_experiment"])
def test_growth_experiments_import_no_scipy(name, workers):
    # scipy.fft would cost every pool process about 23 MB of resident memory
    env = dict(os.environ, PYTHONPATH=str(Path(torusfs.__file__).parents[1]))
    script = _NO_SCIPY_SCRIPT.format(name=name, workers=workers)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_bspace_input_drift_measures_the_calibrated_input(monkeypatch):
    lac = LacunaryConfig(L=5, spacing=2, m=0.0, seed=3)
    atoms = RandomAtomConfig(L=5, spacing=2, p=2.0, seed=3)
    rep = bspace_growth_experiment(lac, atoms, 2.0, 2.0, 1.0, draws=4)
    assert all(abs(row["input_norm"] - 1.0) < 1e-12 for row in rep.table)
    assert rep.details["input_drift"] < 1e-12
    assert rep.passed
    # perturb only the evaluation of the calibrated coefficients, by an L-dependent factor
    plain = experiments.lacunary_test_function

    def perturbed(cfg, grid, q=2.0, coeffs=None):
        f = plain(cfg, grid, q=q, coeffs=coeffs)
        if coeffs is None or coeffs == lacunary_coeffs(cfg, 2.0):
            return f
        return GridFunction.from_spectrum(grid, f.spectrum * (1.0 + cfg.L / 4.0))

    monkeypatch.setattr(experiments, "lacunary_test_function", perturbed)
    rep = bspace_growth_experiment(lac, atoms, 2.0, 2.0, 1.0, draws=4)
    assert rep.details["input_drift"] > 0.10
    assert not rep.passed


def test_growth_reports_identical_serial_and_pooled():
    lac = LacunaryConfig(L=5, spacing=2, m=0.0, seed=31)
    atoms = RandomAtomConfig(L=5, spacing=2, p=2.0, seed=31)
    for experiment in (fspace_growth_experiment, bspace_growth_experiment):
        serial = experiment(lac, atoms, 2.0, 2.0, 1.0, draws=4, L_list=[3, 4, 5], workers=1)
        pooled = experiment(lac, atoms, 2.0, 2.0, 1.0, draws=4, L_list=[3, 4, 5], workers=2)
        assert serial.to_json() == pooled.to_json()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("experiment", [fspace_growth_experiment, bspace_growth_experiment])
def test_growth_rows_follow_the_order_of_L_list(experiment, workers):
    # each top scale's row and draws do not depend on where it stands in L_list
    lac, atoms = LacunaryConfig(L=5, spacing=2, seed=3), RandomAtomConfig(L=5, spacing=2, seed=3)
    ascending = experiment(lac, atoms, 2.0, 2.0, 1.0, draws=2, L_list=[3, 4, 5], workers=workers)
    shuffled = experiment(lac, atoms, 2.0, 2.0, 1.0, draws=2, L_list=[5, 3, 4], workers=workers)
    assert shuffled.params["L_list"] == [5, 3, 4]
    assert shuffled.table == [ascending.table[i] for i in (2, 0, 1)]
    draws = ascending.details["draw_rows"]
    assert shuffled.details["draw_rows"] == [row for L in (5, 3, 4) for row in draws if row["L"] == L]


def _dense_radii(n):
    return np.abs(np.fft.fftfreq(n, d=1.0 / n))


@settings(max_examples=30, deadline=None)
@given(log_n=st.integers(3, 18), j=st.integers(1, 19))
def test_lattice_frequencies_from_indices_are_exact(log_n, j):
    n = 2**log_n
    grid = make_grid(1, n)
    clear_tables()
    idx, vals = build_partition(max(3, j)).table(grid, j)
    r = _dense_radii(n)
    # the table is the band's annulus, plus the Nyquist radius where the band reaches it
    annulus = (r > 2.0 ** (j - 1)) & ((r < 2.0 ** (j + 1)) | ((r == n // 2) & (2.0 ** (j + 1) >= n // 2)))
    assert np.array_equal(np.sort(idx), np.flatnonzero(annulus))
    assert np.array_equal(vals, build_partition(3).mother(r[idx] / 2.0**j))
    # 1-D order: positive radii ascending, their negatives, then the Nyquist frequency
    pos = np.flatnonzero(annulus[: n // 2])
    assert np.array_equal(idx, np.concatenate([pos, n - pos, [n // 2] if annulus[n // 2] else []]))
    assert build_partition(3).table(grid, 0)[0].tolist() == [0, 1, n - 1]
    for sample in (idx, np.arange(n)):
        assert np.array_equal(experiments._lattice_freqs(n, sample), np.fft.fftfreq(n, d=1.0 / n)[sample])


@settings(max_examples=16, deadline=None)
@given(log_n=st.integers(3, 18))
@example(log_n=19)
@example(log_n=20)
@example(log_n=21)
@example(log_n=22)  # criterion 8's input lattice at L = 8
def test_stack_weight_matches_dense_construction(log_n):
    n = 2**log_n
    clear_tables()
    lp = build_partition(3)
    r = _dense_radii(n)
    dense = lp.base(r) ** 2
    for k in range(1, log_n + 1):
        dense += lp.mother(r / 2.0**k) ** 2
    spec = np.random.default_rng(log_n).standard_normal(n) + 0j
    assert experiments._f22_norm(spec) == float(np.sqrt(np.sum(np.abs(spec) ** 2 * dense)))
    # the cache keeps one octave of the weight (a hit never calls the builder)
    assert cached(make_grid(1, n), ("stack",), None).shape == (n // 4,)


def test_stack_weight_build_holds_little_besides_its_table():
    # the octave table of criterion 8's input lattice is 8 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        experiments._stack_octave(2**22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


@pytest.mark.parametrize("log_n", [3, 4, 10, 16])
def test_stack_weight_evaluates_one_octave(log_n, monkeypatch):
    n = 2**log_n
    clear_tables()
    points = []
    step = littlewood_paley.smooth_step
    monkeypatch.setattr(littlewood_paley, "smooth_step", lambda t, *a, **k: points.append(np.size(t)) or step(t, *a, **k))
    experiments._f22_norm(np.ones(n, dtype=complex))
    assert 0 < sum(points) <= n // 4 + 1  # the finest octave n/4 <= r < n/2, and r = 0


def _random_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (rng.random(n) < 0.3)


@settings(max_examples=40, deadline=None)
@given(
    log_n=st.integers(3, 12),
    seed=st.integers(0, 2**16),
    p=st.sampled_from([1.0, 1.5, 2.0, np.inf]),
    t=st.sampled_from([1.0, 1.5, 2.0, np.inf]),
)
def test_mixed_norm_matches_dense_band_transforms(log_n, seed, p, t):
    if p == t == 2.0:
        return  # spectral, pinned by test_stack_weight_matches_dense_construction
    n = 2**log_n
    clear_tables()
    spec = _random_spectrum(n, seed)
    lp = build_partition(3)
    r = _dense_radii(n)
    windows = [lp.base(r)] + [lp.mother(r / 2.0**j) for j in range(1, log_n + 1)]
    moduli = np.array([np.abs(np.fft.ifft(spec * w) * n) for w in windows])
    stack = moduli.max(axis=0) if np.isinf(t) else np.sum(moduli**t, axis=0) ** (1.0 / t)
    dense = float(stack.max() if np.isinf(p) else np.mean(stack**p) ** (1.0 / p))
    got = experiments._mixed_norm(spec, p, t)
    assert abs(got - dense) <= 1e-12 * dense


def _band_pieces(spec):
    """(band, indices, windowed values) of each band whose windowed piece is nonzero, ascending."""
    for j, idx, w in experiments._band_windows(spec):
        piece = spec[idx] * w
        if np.any(piece):
            yield j, idx, piece


def _band_batches(spec):
    """(band, its (R, M) batch of moduli) reassembled from the row blocks of _band_moduli."""
    n = len(spec)
    for j, R, blocks in experiments._band_moduli(spec):
        M = min(2 ** (j + 2), n)
        assert R == n // M
        rows = []
        for b0, vals in blocks:
            assert b0 == sum(len(r) for r in rows)  # consecutive blocks of rows
            assert vals.shape[1] == M and vals.size <= max(experiments._BAND_BLOCK_POINTS, M)
            rows.append(vals.copy())  # the block buffer is overwritten by the next block
        yield j, np.concatenate(rows)


def _assert_band_moduli_match_dense(spec):
    import scipy.fft

    n = len(spec)
    for (j, idx, piece), (band, vals) in zip(_band_pieces(spec), _band_batches(spec), strict=True):
        assert band == j
        M = min(2 ** (j + 2), n)
        assert vals.shape == (n // M, M)  # |f[a R + b]| at [b, a]
        dense = np.zeros(n, dtype=complex)
        dense[idx] = piece
        dense = np.abs(scipy.fft.ifft(dense, norm="forward"))
        assert np.max(np.abs(vals.T.ravel() - dense)) <= 1e-13 * dense.max()


@settings(max_examples=60, deadline=None)
@given(log_n=st.integers(3, 16), data=st.data())
def test_band_range_spans_the_bands_that_hold_the_spectrum(log_n, data):
    n = 2**log_n
    support = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=8))
    spec = np.zeros(n, dtype=complex)
    spec[support] = 1.0
    bands = experiments._band_range(spec)
    r = np.minimum(support, n - np.array(support))
    holds = lambda j, radius: 2.0 ** (j - 1) < radius < 2.0 ** (j + 1)
    if r.max() == 1:  # only the base window (|xi| < 2) holds radius 1
        assert bands == []
        return
    assert bands == list(range(bands[0], bands[-1] + 1))
    assert holds(bands[-1], r.max()) and not holds(bands[-1] + 1, r.max())
    assert holds(bands[0], r.min()) or bands[0] == 1 == r.min()  # the range starts at band 1
    assert bands[-1] <= log_n - 1  # below the partition's top band J = log2 n


def _band_range_from_indices(spec):
    """The bands of _band_range by its former n-point index formula, kept as its oracle."""
    nz = np.flatnonzero(spec != 0)
    r = np.minimum(nz, len(spec) - nz)  # |xi| at FFT-order indices
    r = r[r > 0]
    if r.size == 0:
        return []
    return list(range(max(1, int(np.floor(np.log2(r.min())))), int(np.ceil(np.log2(r.max()))) + 1))


_SPARSE_SPECTRA = st.integers(1, 12).flatmap(
    lambda log_n: st.tuples(
        st.just(log_n),
        st.lists(st.tuples(st.integers(0, 2**log_n - 1), st.sampled_from([1.0, 1j, -0.0, 1e-300])), max_size=6),
    )
)


@settings(max_examples=300, deadline=None)
@given(case=_SPARSE_SPECTRA)
@example(case=(4, []))  # empty
@example(case=(4, [(0, 1.0)]))  # the origin only
@example(case=(4, [(8, 1.0)]))  # the Nyquist index only
@example(case=(4, [(1, 1.0)]))  # radius 1 only, at +1
@example(case=(4, [(15, 1j)]))  # radius 1 only, at -1
@example(case=(1, [(1, 1.0)]))  # n = 2: radius 1 is the Nyquist index
def test_band_range_matches_the_index_formula(case):
    log_n, entries = case
    spec = np.zeros(2**log_n, dtype=complex)
    for i, value in entries:
        spec[i] = value
    assert experiments._band_range(spec) == _band_range_from_indices(spec)


@settings(max_examples=40, deadline=None)
@given(log_n=st.integers(3, 16), seed=st.integers(0, 2**16))
def test_band_moduli_match_dense_inverse_fft(log_n, seed):
    clear_tables()
    _assert_band_moduli_match_dense(_random_spectrum(2**log_n, seed))


def _full_batch_mixed_norm(spec, p, t):
    """_mixed_norm with each band's whole (R, M) batch transformed at once, as one n-point buffer."""
    if p == t == 2.0:
        return experiments._f22_norm(spec)
    n = len(spec)
    stack, spare = np.zeros(n), np.empty(n)
    rows = None
    for j, idx, piece in _band_pieces(spec):
        M = min(2 ** (j + 2), n)
        R = n // M
        folded = np.zeros(M, dtype=complex)
        folded[idx % M] = piece
        batch = np.empty((R, M), dtype=complex)
        if R == 1:
            batch[0] = folded
        else:
            hi, lo = experiments._twiddles(n, M)(0, R)
            np.multiply(hi, lo, out=batch.reshape(np.broadcast_shapes(hi.shape, lo.shape)))
            batch *= folded
        vals = np.abs(np.fft.ifft(batch, axis=-1, norm="forward")).reshape(-1)
        if rows is not None and R < rows:
            stack, spare = experiments._regroup(stack, spare, rows, R), stack
        rows = R
        if np.isinf(t):
            np.maximum(stack, vals, out=stack)
            continue
        if t != 1.0:
            np.power(vals, t, out=vals)
        stack += vals
    if not np.isinf(t) and t != 1.0:
        np.power(stack, 1.0 / t, out=stack)
    if np.isinf(p):
        return float(stack.max())
    np.power(stack, p, out=stack)
    return float(np.mean(stack) ** (1.0 / p))


@settings(max_examples=40, deadline=None)
@given(
    log_n=st.integers(3, 16),
    seed=st.integers(0, 2**16),
    p=st.sampled_from([1.0, 1.5, 2.0, np.inf]),
    t=st.sampled_from([1.0, 1.5, 2.0, np.inf]),
    block_points=st.sampled_from([1, 16, 2**15]),
)
@example(log_n=16, seed=3, p=1.5, t=1.0, block_points=16)  # blocks of fewer rows than the twiddles' row split
@example(log_n=12, seed=4, p=np.inf, t=1.5, block_points=1)  # blocks of one row
def test_blocked_mixed_norm_equals_full_batch(log_n, seed, p, t, block_points):
    clear_tables()
    spec = _random_spectrum(2**log_n, seed)
    with mock.patch.object(experiments, "_BAND_BLOCK_POINTS", block_points):
        assert experiments._mixed_norm(spec, p, t) == _full_batch_mixed_norm(spec, p, t)


@settings(max_examples=60, deadline=None)
@given(log_n=st.integers(3, 14), data=st.data())
def test_regroup_moves_between_batch_orders(log_n, data):
    # batch order of R rows: the value at m = a R + b sits at b n/R + a
    n = 2**log_n
    R = 2 ** data.draw(st.integers(0, log_n))
    R_new = R >> data.draw(st.integers(0, R.bit_length() - 1))
    lattice = np.random.default_rng(log_n).random(n)
    batch = lattice.reshape(n // R, R).T.ravel()
    got = experiments._regroup(batch, np.empty(n), R, R_new)
    assert np.array_equal(got, lattice.reshape(n // R_new, R_new).T.ravel())


def test_band_moduli_match_dense_inverse_fft_at_criterion_size():
    # criterion 8's output lattice: low bands (many short rows) and the top
    # bands (R = 2 and the full transform)
    n = 2**21
    r = _dense_radii(n)
    clear_tables()
    _assert_band_moduli_match_dense(_random_spectrum(n, 8) * ((r < 2.0**8) | (r > 2.0**18)))


def test_mixed_norm_holds_one_stack_and_one_band_beside_the_spectrum():
    # criterion 8's output lattice with mass below radius 2^17: the top band
    # 17 folds onto M = 2^19 points in R = 4 rows, one row per block
    import tracemalloc

    n, M = 2**21, 2**19
    clear_tables()
    spec = _random_spectrum(n, 1) * (_dense_radii(n) < 2.0**17)
    assert experiments._band_range(spec)[-1] == 17
    experiments._mixed_norm(spec, 2.0, 1.0)  # warm: the band tables are cached
    tracemalloc.start()
    try:
        experiments._mixed_norm(spec, 2.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_tables()
    stacks, fold, row_block, moduli = 2 * 8 * n, 16 * M, 16 * M, 8 * M
    assert peak <= stacks + fold + row_block + moduli


def _full_lattice_draw_norms(lac, atoms, p, q, t, draw):
    """_fspace_draw's two norms (to the power p) with the multiplier applied across the whole output lattice."""
    spec, _ = atom_train_spectrum(atoms, make_grid(1, 2 ** (atoms.zeta(atoms.L) + 6)), draw)
    n_out = 2 ** (lac.zeta(lac.L) + 5)
    mult = multiplier_on_lattice(lac, make_grid(1, n_out), draw)
    mult[: n_out // 2] *= spec[: n_out // 2]
    mult[n_out // 2 :] *= spec[-n_out // 2 :]
    return experiments._mixed_norm(spec, p, q) ** p, experiments._mixed_norm(mult, p, t) ** p


@settings(max_examples=30, deadline=None)
@given(
    L=st.integers(3, 5),
    draw=st.integers(0, 7),
    seed=st.integers(0, 2**16),
    pqt=st.sampled_from([(2.0, 2.0, 1.0), (1.5, 1.5, 1.0), (2.0, 2.0, np.inf), (1.5, 1.5, 3.0), (2.0, 2.0, 2.0)]),
)
def test_support_only_product_keeps_the_draw_norms(L, draw, seed, pqt):
    # the output spectrum is written only where the multiplier can be nonzero
    p, q, t = pqt
    lac = LacunaryConfig(L=L, spacing=2, m=-abs(1.0 / p - 0.5), seed=seed)
    atoms = RandomAtomConfig(L=L, spacing=2, p=p, seed=seed + 1)
    _, in_norm, out_norm, _ = experiments._fspace_draw((lac, atoms, p, q, t, draw))
    ref_in, ref_out = _full_lattice_draw_norms(lac, atoms, p, q, t, draw)
    assert (in_norm.hex(), out_norm.hex()) == (ref_in.hex(), ref_out.hex())


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), p=st.sampled_from([1.5, 2.0]), t=st.sampled_from([1.0, 2.0]))
def test_fspace_reports_identical_across_worker_counts(seed, p, t):
    lac = LacunaryConfig(L=5, spacing=2, m=-abs(1.0 / p - 0.5), seed=seed)
    atoms = RandomAtomConfig(L=5, spacing=2, p=p, seed=seed)
    serial = fspace_growth_experiment(lac, atoms, p, p, t, draws=2, L_list=[3, 4, 5], workers=1)
    pooled = fspace_growth_experiment(lac, atoms, p, p, t, draws=2, L_list=[3, 4, 5], workers=2)
    assert serial.to_json() == pooled.to_json()


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), q=st.sampled_from([1.5, 2.0]), t=st.sampled_from([1.0, 2.0]))
def test_bspace_reports_identical_across_worker_counts(seed, q, t):
    lac = LacunaryConfig(L=5, spacing=2, m=0.0, seed=seed)
    atoms = RandomAtomConfig(L=5, spacing=2, p=2.0, seed=seed)
    serial = bspace_growth_experiment(lac, atoms, 2.0, q, t, draws=2, L_list=[3, 4, 5], workers=1)
    pooled = bspace_growth_experiment(lac, atoms, 2.0, q, t, draws=2, L_list=[3, 4, 5], workers=2)
    assert serial.to_json() == pooled.to_json()


@settings(max_examples=40, deadline=None)
@given(z=st.integers(0, 5), data=st.data())
def test_dyadic_root_phases_match_exp(z, data):
    # the root table is read at ((2a+1) xi) mod 2^(z+1); np.exp of the
    # product agrees while its argument stays small
    a = np.array(data.draw(st.lists(st.integers(0, 2**z - 1), min_size=1, max_size=4)))
    xi = np.arange(-(2 ** (z + 5)), 2 ** (z + 5) + 1)
    roots = experiments._dyadic_roots(z)
    table = roots[np.outer(2 * a + 1, xi) % len(roots)]
    direct = np.exp(-2j * np.pi * np.outer((a + 0.5) * 2.0**-z, xi))
    assert np.max(np.abs(table - direct)) <= 1e-12


@pytest.mark.parametrize("log_n, zeta", [(6, 0), (9, 3), (12, 6), (12, 4), (5, 3)])
def test_train_half_is_the_first_half_of_the_train_table(log_n, zeta):
    grid = make_grid(1, 2**log_n)
    clear_tables()
    idx, vals = experiments._train_table(grid, zeta)
    radii, half = experiments._train_half(grid, zeta)
    m = len(half)
    assert np.array_equal(half, vals[:m]) and np.array_equal(radii, idx[: len(radii)])
    assert len(radii) == min(m, 2 ** (zeta + 1))  # one period of the cube-centre phases
    assert np.array_equal(np.sort(idx[m:]), np.sort(np.concatenate([grid.n - idx[:m], idx[2 * m :]])))
    assert idx[m - 1] < grid.n // 2


@pytest.mark.parametrize("d, L", [(1, 4), (2, 3)])
def test_atom_train_phases_match_exp_reference(d, L):
    cfg = RandomAtomConfig(L=L, spacing=1, seed=4, d=d, k0=1)
    grid = make_grid(d, 2 ** (cfg.zeta(L) + 6))
    freqs = grid.freqs()
    cubes = 0
    for draw in range(4):
        spec, actives = atom_train_spectrum(cfg, grid, draw)
        cubes += sum(len(a) for a in actives.values())
        ref = np.zeros(grid.shape, dtype=complex)
        for k in cfg.scales():
            z = cfg.zeta(k)
            prof = reproducing_profile(grid.freq_radii() / 2.0**z) * cfg.amplitude(k) * 2.0 ** (-z * d)
            for flat in actives[k]:
                centre = [(c + 0.5) * 2.0**-z for c in np.unravel_index(flat, (2**z,) * d)]
                ref += prof * np.exp(-2j * np.pi * sum(c * f for c, f in zip(centre, freqs)))
        assert np.max(np.abs(spec - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)
    assert cubes >= 3


def test_dense_atom_train_holds_one_half_band_beside_what_it_keeps():
    # criterion 8's train at L = 7, draw 2: three cubes active at the top scale z = 14,
    # whose window covers the m = 2^19 - 2^14 positive radii 2^14 .. 2^19 - 1
    import tracemalloc

    cfg = RandomAtomConfig(L=7, spacing=2, p=2.0, seed=20250810)
    grid = make_grid(1, 2 ** (cfg.zeta(7) + 6))
    clear_tables()  # cold: the window tables are built inside the call
    tracemalloc.start()
    try:
        _, actives = atom_train_spectrum(cfg, grid, 2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        clear_tables()
    assert len(actives[7]) == 3
    half_band = 16 * (2**19 - 2**14)  # one complex value per positive radius of the top window
    assert peak - kept <= 2 * half_band


_BAND_NORMS = """
import numpy as np
from torusfs.experiments import _band_lp_norms
rng = np.random.default_rng(20)
spec = rng.standard_normal(2**20) + 1j * rng.standard_normal(2**20)
print(repr(sorted(_band_lp_norms(spec).items())))
"""


def test_band_norms_independent_of_blas_threads():
    # bands longer than 10^4 points would take a threaded BLAS reduction
    # whose summation order follows the thread count
    src = str(Path(torusfs.__file__).parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _BAND_NORMS],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(threads)),
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in (1, 2)
    ]
    assert outputs[0] == outputs[1]


def test_bspace_rejects_non_spectral_p():
    lac = LacunaryConfig(L=5, spacing=1, seed=0)
    atoms = RandomAtomConfig(L=5, spacing=1, seed=0)
    with pytest.raises(ValueError):
        bspace_growth_experiment(lac, atoms, p=1.5, q=2.0, t=1.0, draws=5)


def test_lacunary_coeff_modes():
    cfg = RandomAtomConfig(L=6, spacing=1, p=2.0)
    flat = lacunary_coeffs(cfg, 2.0)
    assert len(flat) == 4


def test_shell_sign_sum_lp_comparability():
    # the L^1-in-x norm of (window x shell sign sum) stays within a factor 2
    # band around 2^(zeta d / 2) across draws, and the construction is
    # bit-identical for identical seeds
    cfg = LacunaryConfig(L=3, spacing=2, m=0.0, seed=21)
    z = cfg.zeta(3)
    grid = make_grid(1, 2 ** (z + 5))
    lo, hi = cfg.shell_bounds(3)
    lp = build_partition(3)
    phi = GridFunction.from_spectrum(grid, lp.mother(grid.freq_radii()).astype(complex)).samples
    vals = []
    for draw in range(50):
        pos, neg = rademacher_signs(cfg, draw)[3]
        spec = np.zeros(grid.n, dtype=complex)
        spec[np.arange(lo, hi)] = pos
        spec[-np.arange(lo, hi)] = neg
        d_samples = GridFunction.from_spectrum(grid, spec).samples
        vals.append(float(np.mean(np.abs(phi * d_samples))) / 2.0 ** (z / 2))
    assert max(vals) / min(vals) < 2.0
    again = rademacher_signs(cfg, 7)[3]
    first = rademacher_signs(cfg, 7)[3]
    assert np.array_equal(again[0], first[0]) and np.array_equal(again[1], first[1])
    from torusfs.experiments import atom_train_spectrum

    atoms = RandomAtomConfig(L=3, spacing=2, seed=21)
    g2 = make_grid(1, 2 ** (atoms.zeta(3) + 6))
    s1, _ = atom_train_spectrum(atoms, g2, 5)
    s2, _ = atom_train_spectrum(atoms, g2, 5)
    assert np.array_equal(s1, s2)
