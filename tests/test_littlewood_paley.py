import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusfs import experiments
from torusfs.experiments import reproducing_profile
from torusfs.grid import GridFunction, make_grid
from torusfs.littlewood_paley import (
    LPPartition,
    band_project,
    build_partition,
    check_partition,
    clear_tables,
    export_profiles_csv,
    radial_table,
    radial_window,
    scatter,
)
from torusfs.spaces import build_phi_family


def test_build_partition_validation():
    with pytest.raises(ValueError):
        build_partition(2)


def test_base_at_zero_and_profile_values():
    P = build_partition(6)
    assert P.base(0.0) == 1.0
    # the symmetric cutoff makes phi_hat(3/4) exactly 1/2
    assert abs(P.mother(0.75) - 0.5) < 1e-15
    assert P.mother(1.0) == 1.0


def test_partition_sums_to_one():
    P = build_partition(6)
    total = P.base(3.7) + sum(P.profile(k, 3.7) for k in range(1, 7))
    assert abs(total - 1.0) < 1e-12
    # dense sweep
    r = np.linspace(0.0, 2.0**6, 20001)
    total = P.base(r) + sum(P.profile(k, r) for k in range(1, 7))
    assert np.max(np.abs(total - 1.0)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(J=st.integers(3, 16), data=st.data(), smoothness=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_partition_telescopes_at_random_depth(J, data, smoothness, seed):
    K = data.draw(st.integers(0, J))
    P = build_partition(J, smoothness)
    r = np.random.default_rng(seed).uniform(0.0, 2.0 ** (J + 2), 4000)
    total = P.base(r) + sum(P.profile(k, r) for k in range(1, K + 1))
    assert np.max(np.abs(total - P.partial_sum(K, r))) <= 1e-12


def test_support_condition():
    P = build_partition(6)
    assert P.profile(4, 40.0) == 0.0  # 40 > 2^5
    for k in range(1, 7):
        r_out = np.concatenate([np.linspace(0, 2.0 ** (k - 1), 200), np.linspace(2.0 ** (k + 1), 2.0 ** (k + 3), 200)])
        assert np.max(np.abs(P.profile(k, r_out))) < 1e-14


def test_band_project_constant():
    g = make_grid(1, 64)
    P = build_partition(4)
    c = GridFunction.from_samples(g, np.full(64, 2.5 + 1j))
    assert np.max(np.abs(band_project(c, P, 0).samples - c.samples)) < 1e-12
    for k in range(1, 5):
        assert np.max(np.abs(band_project(c, P, k).samples)) < 1e-13


def test_band_project_pure_exponential():
    g = make_grid(1, 64)
    P = build_partition(4)
    x = g.axis_coords()
    f = GridFunction.from_samples(g, np.exp(2j * np.pi * 3 * x))
    c = P.mother(3.0 / 4.0)  # window 2 evaluated at the input frequency
    out = band_project(f, P, 2)
    assert np.max(np.abs(out.samples - c * f.samples)) < 1e-12


def test_resolution_of_unity_on_band_limited():
    g = make_grid(1, 256)
    P = build_partition(5)
    rng = np.random.default_rng(0)
    spec = np.zeros(256, dtype=complex)
    spec[:32] = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    spec[-31:] = rng.standard_normal(31) + 1j * rng.standard_normal(31)
    f = GridFunction.from_spectrum(g, spec)
    total = sum((band_project(f, P, k) for k in range(P.J + 1)), GridFunction.from_spectrum(g, np.zeros(256, complex)))
    assert np.max(np.abs(total.samples - f.samples)) < 1e-10


def test_band_errors():
    g = make_grid(1, 32)
    P = build_partition(6)
    f = GridFunction.from_samples(g, np.ones(32))
    with pytest.raises(ValueError):
        band_project(f, P, 7)
    with pytest.raises(ValueError):
        band_project(f, P, 5)  # 2^6 > Nyquist 16


def test_almost_orthogonality():
    g = make_grid(1, 256)
    P = build_partition(5)
    rng = np.random.default_rng(1)
    f = GridFunction.from_samples(g, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    for j in range(P.J + 1):
        for k in range(P.J + 1):
            if abs(j - k) >= 2:
                out = band_project(band_project(f, P, k), P, j)
                assert np.max(np.abs(out.samples)) < 1e-13


def test_projection_commutes_with_shifts():
    g = make_grid(1, 128)
    P = build_partition(4)
    rng = np.random.default_rng(2)
    f = GridFunction.from_samples(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    a = band_project(f.shifted(13), P, 3)
    b = band_project(f, P, 3).shifted(13)
    assert np.max(np.abs(a.samples - b.samples)) < 1e-12


def test_band_projection_l2_contraction():
    g = make_grid(1, 128)
    P = build_partition(4)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        f = GridFunction.from_samples(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
        for k in range(P.J + 1):
            assert band_project(f, P, k).lp_norm(2) <= f.lp_norm(2) + 1e-12


def test_check_partition_pass_and_runtime():
    t0 = time.time()
    rep = check_partition(build_partition(10), samples=100_000)
    elapsed = time.time() - t0
    assert rep.passed
    assert rep.constant < 1e-12
    assert rep.details["support_leakage"] < 1e-14
    assert elapsed < 1.0


def test_check_partition_detects_zeroed_profile():
    class Broken(LPPartition):
        def profile(self, k, r):
            if k == 3:
                return np.zeros(np.shape(np.asarray(r)))
            return super().profile(k, r)

    rep = check_partition(Broken(J=6), samples=20_000)
    assert not rep.passed
    # deviation is as large as the zeroed window's peak
    assert rep.constant > 0.9


def test_profiles_csv_export(tmp_path):
    path = tmp_path / "profiles.csv"
    export_profiles_csv(build_partition(4), path, num=64)
    header = path.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["radius", "base", "band_1"]
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (64, 6)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    log_n=st.integers(3, 8),
    period=st.sampled_from([1.0, 2.0, 0.3]),
    smoothness=st.integers(1, 2),
)
def test_scattered_tables_equal_dense_profiles(dim, log_n, period, smoothness):
    # per-radius evaluation gathered onto the lattice is the dense evaluation, to the bit
    grid = make_grid(dim, 2**log_n, period)
    radii = grid.freq_radii()
    clear_tables()
    part = build_partition(log_n + 3, smoothness)
    for k in range(part.J + 1):
        assert np.array_equal(part.window(grid, k), part.profile(k, radii))
    fam = build_phi_family(smoothness)
    for k in range(log_n + 1):
        assert np.array_equal(scatter(grid, fam.table(grid, k)), fam.window(k, radii))
    if smoothness > 1:
        return  # the train window has the default smoothness only
    for z in range(3):
        train = scatter(grid, experiments._train_table(grid, z))
        assert np.array_equal(train, reproducing_profile(radii / 2.0**z))


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    log_n=st.integers(3, 10),
    period=st.sampled_from([1.0, 2.0, 0.3]),
    lo=st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), st.floats(-1.0, 600.0)),
    width=st.one_of(st.just(np.inf), st.floats(0.0, 600.0)),
)
def test_radial_window_equals_scattered_table(dim, log_n, period, lo, width):
    # the window written straight into FFT order is the scattered table, to the bit
    grid = make_grid(dim, 2**log_n, period)
    hi = lo + width
    clear_tables()
    table = radial_table(grid, ("table",), lambda r: 1.0 + r, lo, hi)
    window = radial_window(grid, ("window",), lambda r: 1.0 + r, lo, hi)
    assert window.dtype == table[1].dtype
    assert np.array_equal(window, scatter(grid, table))
