import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusfs import pseudo
from torusfs.grid import GridFunction, make_grid
from torusfs.littlewood_paley import build_partition
from torusfs.maximal import band_limited_function
from torusfs.pseudo import (
    Symbol,
    apply,
    audit_kernel_bounds,
    audit_local_energy,
    audit_single_band,
    band_kernel,
    band_symbol,
    boundedness_region,
    decompose_paradiff,
    fourier_series_identity_check,
    oscillation_check,
    seminorm,
)

G64 = make_grid(1, 64)
P6 = build_partition(6)


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction.from_samples(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def test_apply_identity():
    f = random_function(G64, 0)
    out = apply(Symbol.identity(), f)
    assert np.max(np.abs(out.samples - f.samples)) < 1e-12


def test_apply_multiplication_operator():
    f = random_function(G64, 1)
    gx = np.cos(2 * np.pi * G64.axis_coords())
    sym = Symbol(
        fn=lambda x, xi: np.cos(2 * np.pi * x[0]) * np.ones(np.broadcast(x[0], xi[0]).shape),
        order=0.0,
        dim=1,
        name="cosx",
    )
    out = apply(sym, f)
    assert np.max(np.abs(out.samples - gx * f.samples)) < 1e-12


def test_apply_oscillatory_multiplier_on_exponentials():
    from torusfs.experiments import oscillatory_multiplier

    sym = oscillatory_multiplier(-0.5, 0.25)
    x = G64.axis_coords()
    for freq in (0, 3, -7):
        f = GridFunction.from_samples(G64, np.exp(2j * np.pi * freq * x))
        out = apply(sym, f)
        factor = np.exp(-2j * np.pi * abs(freq) ** 0.75) * (1 + freq**2) ** -0.25
        assert np.max(np.abs(out.samples - factor * f.samples)) < 1e-12
    # at frequency zero the factor is exactly 1
    one = GridFunction.from_samples(G64, np.ones(64))
    assert np.max(np.abs(apply(sym, one).samples - 1.0)) < 1e-14


def test_apply_matches_direct_quadrature():
    g32 = make_grid(1, 32)
    f = random_function(g32, 5)
    sym = Symbol(fn=lambda x, xi: np.exp(2j * np.pi * 2 * x[0]) * np.sin(xi[0] / 7.0), order=0.0, dim=1)
    out = apply(sym, f)
    xs, ks, spec = g32.axis_coords(), g32.axis_freqs(), f.spectrum
    direct = np.array([sum(np.exp(2j * np.pi * 2 * x) * np.sin(k / 7.0) * spec[i] * np.exp(2j * np.pi * x * k) for i, k in enumerate(ks)) for x in xs])
    assert np.max(np.abs(out.samples - direct)) < 1e-10


def test_apply_linear():
    f, g = random_function(G64, 2), random_function(G64, 3)
    sym = Symbol.sin_sin()
    lhs = apply(sym, f + 2.0 * g)
    rhs = apply(sym, f) + 2.0 * apply(sym, g)
    assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-12


def test_apply_2d_multiplier():
    g2 = make_grid(2, 16)
    f = random_function(g2, 4)
    out = apply(Symbol.bessel(-1.0, dim=2), f)
    kx, ky = g2.freqs()
    expected = f.spectrum * (1 + kx**2 + ky**2) ** -0.5
    assert np.max(np.abs(out.spectrum - expected)) < 1e-12


def test_oscillation_check_flags_unresolved_symbol():
    fast = Symbol(fn=lambda x, xi: np.exp(2j * np.pi * 31 * x[0]) * np.ones(np.broadcast(x[0], xi[0]).shape), order=0.0, dim=1)
    with pytest.raises(ValueError):
        apply(fast, random_function(G64, 0))
    # the same symbol is fine on a finer grid
    apply(fast, random_function(make_grid(1, 256), 0))
    assert oscillation_check(Symbol.sin_sin(), G64) < 1e-10


def test_seminorm_examples():
    assert abs(seminorm(Symbol.sin_sin(), 0, 0, m=0.0) - 1.0) < 1e-3
    assert seminorm(Symbol.identity(), 1, 0, m=0.0) == 0.0
    assert seminorm(Symbol.identity(), 0, 2, m=0.0) == 0.0
    val = seminorm(Symbol.bessel(-1.0), 1, 0, m=-1.0)
    assert np.isfinite(val) and 0.5 < val < 1.0


def test_seminorm_halving_check_detects_coarse_step():
    # at step 1 the curvature near the origin is unresolved for this symbol
    with pytest.raises(ValueError):
        seminorm(Symbol.bessel(-1.0), 1, 0, m=-1.0, xi_step=2.0, rtol=0.02)


def test_seminorm_validation():
    with pytest.raises(ValueError):
        seminorm(Symbol.identity(), 3, 2, m=0.0)


def test_paradiff_telescoping_random_table():
    rng = np.random.default_rng(7)
    tbl = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    a = Symbol.from_table(G64, tbl, 0.0, "random")
    dec = decompose_paradiff(a, P6, G64)
    total = dec.pieces[0].table + dec.pieces[1].table + dec.pieces[2].table
    assert np.max(np.abs(total - tbl)) < 1e-10
    bsum = sum(s.table for s in dec.bands.values())
    assert np.max(np.abs(bsum - dec.pieces[2].table)) < 1e-10


@pytest.mark.parametrize("name", ["sinsin", "table"])
def test_paradiff_bands_equal_band_symbol(name):
    # the decomposition reuses its own x-spectrum for its bands; each band is still band_symbol's to the bit
    rng = np.random.default_rng(11)
    tbl = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    a = Symbol.sin_sin() if name == "sinsin" else Symbol.from_table(G64, tbl, 0.0, "random")
    dec = decompose_paradiff(a, P6, G64)
    assert sorted(dec.bands) == list(range(3, P6.J + 2))
    for k, b in dec.bands.items():
        ref = band_symbol(a, P6, k, G64)
        assert b.name == ref.name
        assert np.array_equal(b.table, ref.table)


@settings(max_examples=40, deadline=None)
@given(
    J=st.integers(3, 7),
    band=st.integers(0, 4),
    order=st.sampled_from([0.0, -0.5, 0.3]),
    xi=st.lists(st.floats(-600.0, 600.0, allow_nan=False), min_size=1, max_size=12),
)
def test_multiplier_band_symbol_keeps_its_window_off_the_lattice(J, band, order, xi):
    # band k <= J is profile k, and the closure band J + 1 is 1 - partial_sum(J), at any real xi
    part = build_partition(J)
    k = min(3 + band, J + 1)
    a = Symbol.bessel(order)
    xi = np.array(xi)
    zeros = np.zeros(len(xi))
    win = part.profile(k, np.sqrt(xi**2)) if k <= J else 1.0 - part.partial_sum(J, np.sqrt(xi**2))
    got = band_symbol(a, part, k, G64).fn((zeros,), (xi,))
    assert np.array_equal(got, a.fn((zeros,), (xi,)) * win)


@pytest.mark.parametrize("n, J", [(64, 3), (64, 6), (256, 6), (512, 7), (1024, 5)])
def test_lattice_band_window_is_a_difference_of_cumulative_windows(n, J):
    grid, part = make_grid(1, n), build_partition(J)
    for k in range(J + 2):
        win = pseudo._cum_lattice_window(part, k, grid) - pseudo._cum_lattice_window(part, k - 1, grid)
        ref = part.window(grid, k) if k <= J else 1.0 - pseudo._cum_lattice_window(part, J, grid)
        assert np.array_equal(win, ref)


def test_paradiff_multiplier():
    a = Symbol.bessel(-0.5)
    dec = decompose_paradiff(a, P6)
    xi = np.linspace(-30.0, 30.0, 101)
    zeros = np.zeros(101)
    assert np.max(np.abs(dec.pieces[0].fn((zeros,), (xi,)))) == 0.0
    b4 = dec.bands[4]
    got = b4.fn((zeros,), (xi,))
    expected = (1 + xi**2) ** -0.25 * P6.profile(4, np.abs(xi))
    assert np.max(np.abs(got - expected)) < 1e-14


def test_paradiff_modulated_symbol_band_membership():
    # x-content at frequency 8 lives in x-bands j = 2..4, so pairs with
    # k >= 11 land in the low-high piece and k <= 1 in the high-low piece
    def fn(x, xi):
        return np.exp(2j * np.pi * 8 * x[0]) * (1.0 + 0.1 * np.cos(xi[0]))

    a = Symbol(fn=fn, order=0.0, dim=1, name="mod8")
    grid = make_grid(1, 256)
    part = build_partition(6)
    dec = decompose_paradiff(a, part, grid)
    table = np.fft.fft(dec.pieces[2].table, axis=0)
    # low-high piece: x-spectrum must be cut below the band
    for k, b in dec.bands.items():
        bt = np.fft.fft(b.table, axis=0)
        xfreqs = np.abs(grid.axis_freqs())
        leak = np.abs(bt[xfreqs > 2.0 ** max(k - 2, 0), :]).max() if np.any(xfreqs > 2.0 ** max(k - 2, 0)) else 0.0
        assert leak < 1e-10 * max(np.abs(bt).max(), 1e-300)
    assert np.max(np.abs(dec.pieces[0].table + dec.pieces[1].table + dec.pieces[2].table - a.fn((grid.axis_coords()[:, None],), (grid.axis_freqs()[None, :],)))) < 1e-10


def test_band_symbol_seminorm_uniformity():
    grid = make_grid(1, 256)
    part = build_partition(6)
    # genuinely x-dependent order-0 symbol, resolved in x
    x = grid.axis_coords()[:, None]
    xi = grid.axis_freqs()[None, :]
    tbl = (1.0 + 0.5 * np.sin(2 * np.pi * x)) * np.cos(xi / 9.0)
    a = Symbol.from_table(grid, tbl, 0.0, "wavy")
    vals = []
    for k in range(3, 7):
        b = band_symbol(a, part, k, grid)
        vals.append(seminorm(b, 0, 0, m=0.0))
    assert max(vals) <= 2.0 * np.median(vals)


def test_band_output_spectrum_support():
    grid = make_grid(1, 256)
    part = build_partition(6)
    x = grid.axis_coords()[:, None]
    xi = grid.axis_freqs()[None, :]
    tbl = (1.0 + 0.5 * np.sin(2 * np.pi * x)) * np.cos(xi / 9.0)
    a = Symbol.from_table(grid, tbl, 0.0, "wavy")
    rng = np.random.default_rng(0)
    f = band_limited_function(grid, 60.0, rng)
    for k in (4, 5):
        b = band_symbol(a, part, k, grid)
        out = apply(b, f, check=False)
        radii = grid.freq_radii()
        outside = (radii < 2.0 ** (k - 2)) | (radii > 2.0 ** (k + 2))
        top = np.abs(out.spectrum).max()
        assert np.abs(out.spectrum[outside]).max() < 1e-10 * top


def test_band_kernel_multiplier_is_window_profile():
    b3 = band_symbol(Symbol.identity(), P6, 3, G64)
    bk = band_kernel(b3, 3, G64)
    phi3 = GridFunction.from_spectrum(G64, P6.window(G64, 3).astype(complex))
    assert np.max(np.abs(bk.profile - phi3.samples)) < 1e-10
    assert bk.eta_leakage() < 1e-14
    # matrix view agrees with operator application
    f = random_function(G64, 8)
    via_matrix = bk.matrix() @ f.samples * G64.cell_volume
    via_apply = apply(b3, f, check=False).samples
    assert np.max(np.abs(via_matrix - via_apply)) < 1e-10


def test_band_kernel_table_case():
    rng = np.random.default_rng(7)
    tbl = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    a = Symbol.from_table(G64, tbl, 0.0, "random")
    dec = decompose_paradiff(a, P6, G64)
    b4 = dec.bands[4]
    bk = band_kernel(b4, 4, G64)
    f = random_function(G64, 9)
    via_matrix = bk.matrix() @ f.samples * G64.cell_volume
    via_apply = apply(b4, f, check=False).samples
    assert np.max(np.abs(via_matrix - via_apply)) < 1e-10
    assert bk.eta_leakage() < 1e-10


def test_kernel_bound_slopes():
    grid = make_grid(1, 4096)
    part = build_partition(9)
    for m in (0.0, -0.5):
        rep = audit_kernel_bounds(Symbol.bessel(m), part, ks=(3, 4, 5, 6, 7, 8), grid=grid)
        assert rep.passed
        assert abs(rep.details["slope_alpha0"] - (m + 0.5)) <= 0.15
        assert rep.details["eta_leakage_max"] < 1e-10


@pytest.mark.parametrize(
    "ks, alphas",
    [((3,), (0, 1, 2)), ((4, 4), (0, 1, 2)), ((5, 2), (0, 1, 2)), ((), (0, 1, 2)), ((3, 4, 5), (1, 2))],
)
def test_kernel_bounds_rejects_bad_bands_before_any_kernel(ks, alphas, monkeypatch):
    import torusfs.pseudo as pseudo

    built = []
    for name in ("band_symbol", "band_kernel"):
        real = getattr(pseudo, name)
        monkeypatch.setattr(pseudo, name, lambda *a, real=real, name=name, **k: built.append(name) or real(*a, **k))
    with pytest.raises(ValueError, match="kernel audit"):
        audit_kernel_bounds(Symbol.bessel(0.0), build_partition(9), ks=ks, grid=make_grid(1, 512), alphas=alphas)
    assert built == []


def test_single_band_audit_multiplier_exact():
    grid = make_grid(1, 4096)
    part = build_partition(9)
    rep = audit_single_band(Symbol.bessel(0.0), 2.0, grid=grid, partition=part)
    assert rep.passed and rep.details["exact"]
    assert abs(rep.details["slope"]) <= 0.1
    # projection bound: identity symbol band norms never exceed 1
    assert all(row["ratio"] <= 1.0 + 1e-12 for row in rep.table)
    rep = audit_single_band(Symbol.bessel(-0.5), 2.0, grid=grid, partition=part)
    assert rep.passed
    assert abs(rep.details["slope"] + 0.5) <= 0.1


def test_single_band_audit_sup_norm_probe():
    rep = audit_single_band(
        Symbol.sin_sin(), np.inf, ks=(3, 4, 5, 6), trials=8, grid=make_grid(1, 512), partition=build_partition(7)
    )
    assert rep.passed
    assert rep.details["lower_bound_only"]
    assert rep.details["slope"] <= 0.0 + 0.5 + 0.15


def test_local_energy_audit():
    rep = audit_local_energy(Symbol.bessel(0.0), build_partition(7), make_grid(1, 512), trials=6)
    assert rep.passed
    assert rep.details["eps_hat"] > 0
    # multiplier on a pure in-band exponential: closed-form local average
    grid = make_grid(1, 256)
    part = build_partition(6)
    b5 = band_symbol(Symbol.bessel(0.0), part, 5, grid)
    x = grid.axis_coords()
    f = GridFunction.from_samples(grid, np.exp(2j * np.pi * 32 * x))
    out = apply(b5, f, check=False)
    val = abs(b5.multiplier_values(grid)[32])
    assert np.max(np.abs(np.abs(out.samples) - val)) < 1e-12


def test_fourier_series_identity():
    grid = make_grid(1, 32)
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = GridFunction.from_samples(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        psi = GridFunction.from_spectrum(grid, np.exp(-0.05 * grid.freq_radii() ** 2).astype(complex))
        rep = fourier_series_identity_check(g, psi)
        assert rep.passed
    # zero input
    z = GridFunction.from_samples(grid, np.zeros(32))
    assert fourier_series_identity_check(z, psi).constant == 0.0
    # unit-impulse window (spectrum identically one)
    imp = GridFunction.from_spectrum(grid, np.ones(32, dtype=complex))
    g = GridFunction.from_samples(grid, rng.standard_normal(32) + 0j)
    rep = fourier_series_identity_check(g, imp)
    assert rep.passed


def test_boundedness_region_table():
    # strict inequality
    assert boundedness_region(-0.6, 0, 0, 1.0, 2.0, 2.0, d=1) == "F1"
    # p = 2 with q <= 2 <= t at zero excess
    assert boundedness_region(0.0, 0, 0, 2.0, 2.0, 2.0, d=1) == "F2"
    assert boundedness_region(0.0, 0, 0, 2.0, 3.0, 2.0, d=1) == "outside"
    # p < 2 at the critical line needs t >= p
    assert boundedness_region(-0.5, 0, 0, 1.0, 2.0, 1.0, d=1) == "F3"
    assert boundedness_region(-0.5, 0, 0, 1.0, 2.0, 0.5, d=1) == "outside"
    # p > 2 at the critical line needs q <= p
    assert boundedness_region(-0.25, 0, 0, 4.0, 3.0, 1.0, d=1) == "F4"
    assert boundedness_region(-0.25, 0, 0, 4.0, 5.0, 1.0, d=1) == "outside"
    # p = inf routes through the p > 2 case
    assert boundedness_region(-0.5, 0, 0, np.inf, 2.0, 1.0, d=1) == "F4"
    # band scale
    assert boundedness_region(-0.6, 0, 0, 1.0, 2.0, 2.0, d=1, family="besov") == "B1"
    assert boundedness_region(-0.5, 0, 0, 1.0, 2.0, 3.0, d=1, family="besov") == "B2"
    assert boundedness_region(-0.5, 0, 0, 1.0, 3.0, 2.0, d=1, family="besov") == "outside"
    # smoothness shifts enter through m - s1 + s2
    assert boundedness_region(0.4, 1.0, 0.1, 1.0, 2.0, 1.0, d=1) == "F3"
    with pytest.raises(ValueError):
        boundedness_region(0.0, 0, 0, -1.0, 2.0, 2.0)
