import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusfs.grid import (
    GridFunction,
    convolve,
    load_gridfunction,
    make_grid,
    save_gridfunction,
    upsample,
)


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction.from_samples(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def test_make_grid_examples():
    g = make_grid(1, 8, 1.0)
    assert (g.dim, g.n) == (1, 8)
    g = make_grid(2, 64, 1.0)
    assert (g.dim, g.n) == (2, 64)
    with pytest.raises(ValueError):
        make_grid(1, 7, 1.0)
    with pytest.raises(ValueError):
        make_grid(3, 16, 1.0)
    with pytest.raises(ValueError):
        make_grid(1, 4, 1.0)


def test_constant_spectrum():
    g = make_grid(1, 8)
    f = GridFunction.from_samples(g, np.ones(8))
    assert abs(f.spectrum[0] - 1.0) < 1e-14
    assert np.max(np.abs(f.spectrum[1:])) < 1e-14


def test_pure_exponential_spectrum():
    g = make_grid(1, 16)
    x = g.axis_coords()
    f = GridFunction.from_samples(g, np.exp(2j * np.pi * 3 * x))
    assert abs(f.spectrum[3] - 1.0) < 1e-12
    spec = f.spectrum.copy()
    spec[3] = 0
    assert np.max(np.abs(spec)) < 1e-12


def test_round_trip():
    g = make_grid(1, 64)
    f = random_function(g, 0)
    back = GridFunction.from_spectrum(g, f.spectrum)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.sampled_from([(1, 32), (1, 128), (2, 16)]))
def test_parseval(seed, shape):
    dim, n = shape
    g = make_grid(dim, n)
    f = random_function(g, seed)
    lhs = np.sum(np.abs(f.samples) ** 2) * g.cell_volume
    rhs = np.sum(np.abs(f.spectrum) ** 2) / g.period**g.dim
    assert abs(lhs - rhs) / lhs < 1e-10


@settings(deadline=None, max_examples=60)
@given(
    dim=st.sampled_from([1, 2]),
    n=st.sampled_from([2**k for k in range(3, 8)]),  # Grid rejects n < 8
    period=st.sampled_from([1.0, 2.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_and_parseval_on_any_grid(dim, n, period, seed):
    g = make_grid(dim, n, period)
    f = random_function(g, seed)
    back = GridFunction.from_spectrum(g, f.spectrum).samples
    assert np.max(np.abs(back - f.samples)) <= 1e-12 * np.max(np.abs(f.samples))
    h = GridFunction.from_spectrum(g, f.samples)  # any array is also a spectrum
    again = GridFunction.from_samples(g, h.samples).spectrum
    assert np.max(np.abs(again - h.spectrum)) <= 1e-12 * np.max(np.abs(h.spectrum))
    for u in (f, h):
        lhs = np.sum(np.abs(u.samples) ** 2) * g.cell_volume
        rhs = np.sum(np.abs(u.spectrum) ** 2) / g.period**g.dim
        assert abs(lhs - rhs) <= 1e-12 * lhs


def test_parseval_100_random():
    g = make_grid(1, 64)
    for seed in range(100):
        f = random_function(g, seed)
        lhs = np.sum(np.abs(f.samples) ** 2) * g.cell_volume
        rhs = np.sum(np.abs(f.spectrum) ** 2)
        assert abs(lhs - rhs) / lhs < 1e-10


def test_convolution_identity_element():
    g = make_grid(1, 32)
    f = random_function(g, 1)
    delta = GridFunction.from_spectrum(g, np.ones(32, dtype=complex))
    out = convolve(f, delta)
    assert np.max(np.abs(out.samples - f.samples)) < 1e-12


def test_convolution_disjoint_exponentials():
    g = make_grid(1, 32)
    x = g.axis_coords()
    f = GridFunction.from_samples(g, np.exp(2j * np.pi * 3 * x))
    h = GridFunction.from_samples(g, np.exp(2j * np.pi * 5 * x))
    out = convolve(f, h)
    assert np.max(np.abs(out.samples)) < 1e-12


def test_convolution_against_direct_sum():
    g = make_grid(1, 32)
    f = random_function(g, 2)
    h = random_function(g, 3)
    out = convolve(f, h)
    direct = np.empty(32, dtype=complex)
    for i in range(32):
        direct[i] = np.sum(f.samples * h.samples[(i - np.arange(32)) % 32]) * g.cell_volume
    assert np.max(np.abs(out.samples - direct)) < 1e-10


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_convolution_bilinear_commutative(seed):
    g = make_grid(1, 32)
    f, h, w = (random_function(g, seed + i) for i in range(3))
    lhs = convolve(f + 2.0 * h, w)
    rhs = convolve(f, w) + 2.0 * convolve(h, w)
    assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-12
    assert np.max(np.abs(convolve(f, h).samples - convolve(h, f).samples)) < 1e-12


def test_convolution_grid_mismatch():
    f = random_function(make_grid(1, 32), 0)
    h = random_function(make_grid(1, 64), 0)
    with pytest.raises(ValueError):
        convolve(f, h)


def test_translation_covariance():
    g = make_grid(1, 64)
    f = random_function(g, 5)
    for shift in (1, 7, 32):
        shifted = f.shifted(shift)  # f(x - a) with a = shift * dx
        a = shift * g.period / g.n
        expected = f.spectrum * np.exp(-2j * np.pi * a * g.axis_freqs())
        assert np.max(np.abs(shifted.spectrum - expected)) < 1e-12


def test_immutability():
    g = make_grid(1, 32)
    f = random_function(g, 0)
    with pytest.raises(ValueError):
        f.samples[0] = 0.0
    with pytest.raises(ValueError):
        f.spectrum[0] = 0.0


def test_nonfinite_rejected():
    g = make_grid(1, 8)
    bad = np.ones(8)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        GridFunction.from_samples(g, bad)


def test_upsample_preserves_band_limited():
    g = make_grid(1, 32)
    x = g.axis_coords()
    f = GridFunction.from_samples(g, np.exp(2j * np.pi * 5 * x))
    fine = upsample(f, 4)
    xf = fine.grid.axis_coords()
    assert np.max(np.abs(fine.samples - np.exp(2j * np.pi * 5 * xf))) < 1e-11


def test_lp_norm_pure_exponential():
    g = make_grid(1, 64)
    x = g.axis_coords()
    f = GridFunction.from_samples(g, np.exp(2j * np.pi * 7 * x))
    for p in (0.5, 1.0, 2.0, np.inf):
        assert abs(f.lp_norm(p) - 1.0) < 1e-12


def test_serialization_round_trip(tmp_path):
    for dim, n in ((1, 32), (2, 16)):
        g = make_grid(dim, n)
        f = random_function(g, 9)
        path = tmp_path / f"f{dim}.dat"
        save_gridfunction(f, path)
        back = load_gridfunction(path)
        assert back.grid == g
        assert np.max(np.abs(back.samples - f.samples)) == 0.0
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.dat"
        bad.write_text("not a dump\n")
        load_gridfunction(bad)
