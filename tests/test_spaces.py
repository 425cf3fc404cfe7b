import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusfs import littlewood_paley
from torusfs.dyadic import DyadicCube
from torusfs.grid import GridFunction, make_grid
from torusfs.littlewood_paley import build_partition
from torusfs.maximal import band_limited_function
from torusfs.spaces import (
    CoeffField,
    SpaceParams,
    atomic_decompose,
    besov_norm,
    build_phi_family,
    is_infty_atom,
    norm_equivalence_audit,
    phi_analyze,
    phi_synthesize,
    sequence_norm,
    triebel_infty_norm,
    triebel_norm,
    triebel_sharp_norm,
)

G128 = make_grid(1, 128)
P5 = build_partition(5)


def random_band_limited(seed, grid=G128, radius=28.0):
    return band_limited_function(grid, radius, np.random.default_rng(seed))


def test_space_params_validation():
    with pytest.raises(ValueError):
        SpaceParams(0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        SpaceParams(0.0, 2.0, -1.0)
    with pytest.raises(ValueError):
        SpaceParams(0.0, 2.0, 2.0, "sobolev")


def test_constant_norms():
    c = GridFunction.from_samples(G128, np.full(128, -1.5 + 2j))
    mag = abs(-1.5 + 2j)
    for s, p, q in [(0.0, 2.0, 2.0), (0.7, 1.0, 3.0), (-0.2, np.inf, 1.0)]:
        assert abs(besov_norm(c, P5, SpaceParams(s, p, q, "besov")) - mag) < 1e-12
    assert abs(triebel_norm(c, P5, SpaceParams(0.3, 1.5, 2.0, "triebel")) - mag) < 1e-12
    assert abs(triebel_infty_norm(c, P5, 0.0, 2.0) - mag) < 1e-12


def test_single_band_weight():
    # frequency 8 sits at the peak of window 3 (phi_hat(1) = 1)
    x = G128.axis_coords()
    f = GridFunction.from_samples(G128, np.exp(2j * np.pi * 8 * x))
    for s in (-1.0, 0.0, 1.3):
        sp = SpaceParams(s, 2.0, 2.0, "besov")
        assert abs(besov_norm(f, P5, sp) - 2.0 ** (3 * s)) < 1e-10


def test_besov_l2_bracket():
    sp = SpaceParams(0.0, 2.0, 2.0, "besov")
    for seed in range(50):
        f = random_band_limited(seed)
        ratio = besov_norm(f, P5, sp) / f.lp_norm(2)
        assert np.sqrt(0.5) - 1e-9 <= ratio <= 1.0 + 1e-9


def test_triebel_equals_besov_at_p_eq_q():
    for seed in range(5):
        f = random_band_limited(seed)
        for p in (1.0, 2.0, 3.0):
            a = triebel_norm(f, P5, SpaceParams(0.4, p, p, "triebel"))
            b = besov_norm(f, P5, SpaceParams(0.4, p, p, "besov"))
            assert abs(a - b) < 1e-12 * max(a, 1)


def test_f22_equals_b22():
    f = random_band_limited(11)
    a = triebel_norm(f, P5, SpaceParams(0.0, 2.0, 2.0, "triebel"))
    b = besov_norm(f, P5, SpaceParams(0.0, 2.0, 2.0, "besov"))
    assert abs(a - b) < 1e-12


def test_triebel_rejects_p_inf():
    f = random_band_limited(0)
    with pytest.raises(ValueError):
        triebel_norm(f, P5, SpaceParams(0.0, np.inf, 2.0, "triebel"))


def test_quasi_norm_axioms():
    sp = SpaceParams(0.3, 0.7, 1.5, "triebel")
    C = 2.0 ** max(0.0, 1.0 / min(sp.p, sp.q) - 1.0)
    for seed in range(10):
        f, g = random_band_limited(seed), random_band_limited(seed + 100)
        nf = triebel_norm(f, P5, sp)
        assert abs(triebel_norm(3.0 * f, P5, sp) - 3.0 * nf) < 1e-9 * nf
        lhs = triebel_norm(f + g, P5, sp)
        assert lhs <= C * (nf + triebel_norm(g, P5, sp)) * (1 + 1e-9)


def test_besov_monotone_in_q():
    for seed in range(5):
        f = random_band_limited(seed)
        values = [besov_norm(f, P5, SpaceParams(0.2, 2.0, q, "besov")) for q in (0.5, 1.0, 2.0, np.inf)]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 1e-12)


def test_lifting_single_band():
    x = G128.axis_coords()
    f = GridFunction.from_samples(G128, np.exp(2j * np.pi * 8 * x))  # band 3
    sigma = 0.8
    lifted = 2.0 ** (sigma * 3) * f
    a = besov_norm(lifted, P5, SpaceParams(0.2, 2.0, 2.0, "besov"))
    b = besov_norm(f, P5, SpaceParams(0.2 + sigma, 2.0, 2.0, "besov"))
    assert abs(a - b) < 1e-10 * a


def test_triebel_infty_single_band_oracle():
    grid = make_grid(1, 64)
    part = build_partition(4)
    rng = np.random.default_rng(3)
    spec = np.zeros(64, dtype=complex)
    for r in range(5, 9):
        spec[r] = rng.standard_normal() + 1j * rng.standard_normal()
        spec[-r] = rng.standard_normal() + 1j * rng.standard_normal()
    f = GridFunction.from_spectrum(grid, spec)
    q = 2.0
    got = triebel_infty_norm(f, part, 0.0, q)
    # brute force: all dyadic cubes, tail sum over bands >= scale
    bands = [np.abs(GridFunction.from_spectrum(grid, spec * part.window(grid, k)).samples) for k in range(5)]
    base = bands[0].max()
    best = 0.0
    for mu in range(1, 7):
        w = 64 >> mu
        for off in range(2**mu):
            sel = slice(off * w, (off + 1) * w)
            tot = sum(np.mean(bands[k][sel] ** q) for k in range(mu, 5))
            best = max(best, tot ** (1 / q))
    assert abs(got - (base + best)) < 1e-10


def test_triebel_infty_q_comparison_recorded():
    # Band nesting pushes the q = 4 value below the q = 2 one, but the
    # normalized cube average grows with q, so strict pointwise
    # monotonicity can fail by a few percent; record the ratio band.
    ratios = []
    for seed in range(20):
        f = random_band_limited(seed)
        v2 = triebel_infty_norm(f, P5, 0.0, 2.0)
        v4 = triebel_infty_norm(f, P5, 0.0, 4.0)
        ratios.append(v4 / v2)
    assert max(ratios) < 1.3
    assert np.mean(ratios) < 1.05


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


def test_sequence_norm_single_indicator():
    sp = SpaceParams(0.7, 1.5, 2.0)
    k = 3
    b = CoeffField(1)
    b[(k, 2)] = 2.0 ** (-k * (sp.s + 0.5))
    assert abs(sequence_norm(b, sp) - 2.0 ** (-k / sp.p)) < 1e-12


def test_sequence_norm_empty():
    assert sequence_norm(CoeffField(1), SpaceParams(0.0, 2.0, 2.0)) == 0.0


def test_sequence_norm_p_eq_q_closed_form():
    rng = np.random.default_rng(5)
    sp = SpaceParams(0.3, 1.7, 1.7)
    b = CoeffField(1)
    entries = []
    for _ in range(10):
        k = int(rng.integers(0, 5))
        off = int(rng.integers(0, 2**k))
        v = complex(rng.standard_normal(), rng.standard_normal())
        b[(k, off)] = v
    total = 0.0
    for (k, off), v in b:
        w = 2.0 ** (k * (sp.s + 0.5)) * abs(v)
        total += w**sp.p * 2.0**-k
    assert abs(sequence_norm(b, sp) - total ** (1 / sp.p)) < 1e-10


def _random_field(dim, seed, depth=4, count=12):
    """A sparse field with ``count`` random coefficients at scales 0..depth."""
    rng = np.random.default_rng(seed)
    b = CoeffField(dim)
    for _ in range(count):
        k = int(rng.integers(0, depth + 1))
        b[(k, tuple(int(o) for o in rng.integers(0, 2**k, size=dim)))] = complex(*rng.standard_normal(2))
    return b


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([1, 2]), seed=st.integers(0, 2**16), depth=st.integers(0, 5))
def test_coeff_field_rows_round_trip(dim, seed, depth):
    b = _random_field(dim, seed, depth)
    rows = b.to_rows()
    assert [(r["k"],) + tuple(r[f"offset{i}"] for i in range(dim)) for r in rows] == sorted(
        (k,) + off for (k, off) in b.entries
    )
    back = {(r["k"], tuple(r[f"offset{i}"] for i in range(dim))): complex(r["re"], r["im"]) for r in rows}
    assert back == b.entries
    assert len(b) == len(rows)


def _g_field_by_cubes(b, sp):
    """g^{s,q}(b) on the finest cells, adding w**q on each cube's cells."""
    n = 2**b.max_depth
    acc = np.zeros((n,) * b.dim)
    for (k, off), v in b:
        w = 2.0 ** (k * (sp.s + b.dim / 2.0)) * abs(v)
        cells = DyadicCube(k, off, b.dim).sample_slices(n)
        acc[cells] = np.maximum(acc[cells], w) if np.isinf(sp.q) else acc[cells] + w**sp.q
    return acc if np.isinf(sp.q) else acc ** (1.0 / sp.q)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
    q=st.sampled_from([0.5, 1.0, 2.0, 3.5, np.inf]),
    p=st.sampled_from([0.7, 1.0, 2.0, np.inf]),
)
def test_g_field_and_sequence_norm_match_cube_reference(dim, seed, q, p):
    sp = SpaceParams(0.3, p, q)
    b = _random_field(dim, seed)
    ref = _g_field_by_cubes(b, sp)
    got = b.g_field(sp)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)
    if np.isinf(p):
        expected = ref.max()
    else:
        expected = (np.mean(ref**p)) ** (1.0 / p)
    assert abs(sequence_norm(b, sp) - expected) <= 1e-12 * expected


def test_coeff_field_rejects_bad_cubes():
    b = CoeffField(1)
    with pytest.raises(ValueError):
        b[(2, 4)] = 1.0  # offset 4 outside scale 2
    with pytest.raises(ValueError):
        b[(-1, 0)] = 1.0  # side > 1


# ---------------------------------------------------------------------------
# frame transform
# ---------------------------------------------------------------------------

FAM = build_phi_family()


def test_family_invariants():
    lo, hi = FAM.support_annulus
    r_out = np.concatenate([np.linspace(0, lo, 300, endpoint=False), np.linspace(hi * 1.0000001, 4.0, 300)])
    assert np.max(np.abs(FAM.theta(r_out))) < 1e-14
    assert np.max(np.abs(FAM.theta0(np.linspace(2 * FAM.scale + 1e-9, 8.0, 300)))) == 0.0
    assert FAM.c > 0
    clo, chi = FAM.coverage_annulus
    assert np.min(FAM.theta(np.linspace(clo, chi, 500))) >= FAM.c - 1e-12
    assert np.min(FAM.theta0(np.linspace(0, chi, 500))) >= FAM.c - 1e-12
    # frame identity on the covered range
    r = np.linspace(0.0, FAM.coverage_radius(6), 3000)
    total = FAM.theta0(r) ** 2 + sum(FAM.theta(r / 2.0**k) ** 2 for k in range(1, 7))
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_analyze_zero_and_linearity():
    z = GridFunction.from_samples(G128, np.zeros(128))
    v = phi_analyze(z, FAM, 5)
    assert len(v) == 0  # entries and len cover only the nonzero coefficients
    f, g = random_band_limited(1, radius=12.0), random_band_limited(2, radius=12.0)
    vf = phi_analyze(f, FAM, 5)
    vg = phi_analyze(g, FAM, 5)
    vsum = phi_analyze(f + g, FAM, 5)
    for key in vsum.entries:
        assert abs(vsum[key] - (vf[key] + vg[key])) < 1e-12


def test_synthesize_single_coefficient_matches_definition():
    v = CoeffField(1)
    v[(3, 5)] = 1.0
    out = phi_synthesize(v, FAM, G128)
    spec = FAM.window(3, G128.freq_radii()) * np.exp(-2j * np.pi * G128.axis_freqs() * (5 / 8)) * 2.0 ** (-3 / 2)
    direct = GridFunction.from_spectrum(G128, spec.astype(complex))
    assert np.max(np.abs(out.samples - direct.samples)) < 1e-12


def test_frame_windows_come_from_the_table_cache(monkeypatch):
    fam = build_phi_family()
    f = random_band_limited(4)
    littlewood_paley.clear_tables()
    calls = []
    step = littlewood_paley.smooth_step
    monkeypatch.setattr(littlewood_paley, "smooth_step", lambda *a, **k: calls.append(1) or step(*a, **k))
    phi_analyze(f, fam, 6)
    assert calls
    calls.clear()
    phi_analyze(f, fam, 6)
    assert not calls  # every window is a cache hit
    littlewood_paley.clear_tables()
    assert not littlewood_paley._TABLES
    phi_analyze(f, fam, 6)
    assert calls


def test_round_trip_band_limited():
    for seed in range(20):
        f = random_band_limited(seed, radius=14.0)
        back = phi_synthesize(phi_analyze(f, FAM, 6), FAM, G128)
        rel = np.max(np.abs(back.samples - f.samples)) / np.max(np.abs(f.samples))
        assert rel < 1e-8


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([1, 2]), seed=st.integers(0, 2**16), depth=st.integers(1, 6))
def test_round_trip_random_depth(dim, seed, depth):
    grid = make_grid(dim, 128 if dim == 1 else 64)
    f = band_limited_function(grid, 0.9 * FAM.coverage_radius(depth), np.random.default_rng(seed))
    back = phi_synthesize(phi_analyze(f, FAM, depth), FAM, grid)
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-8 * np.max(np.abs(f.samples))


def test_round_trip_on_window_atom():
    v0 = CoeffField(1)
    v0[(4, 9)] = 1.0
    f = phi_synthesize(v0, FAM, G128)
    back = phi_synthesize(phi_analyze(f, FAM, 6), FAM, G128)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-8 * np.max(np.abs(f.samples))


def test_norm_equivalence_audit_three_triples():
    sps = (
        SpaceParams(0.0, 2.0, 2.0, "triebel"),
        SpaceParams(0.5, 1.0, 2.0, "triebel"),
        SpaceParams(-0.3, 3.0, 1.5, "triebel"),
    )
    for sp, rep in zip(sps, norm_equivalence_audit(20, sps, seed=0)):
        assert rep.passed, (sp, rep.details)
        row = rep.table[0]
        assert 0 < row["ratio_min"] <= row["ratio_max"] < np.inf


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def test_atom_examples():
    sp = SpaceParams(0.3, 1.0, 2.0)
    Q0 = DyadicCube(1, (1,), 1)
    assert is_infty_atom(CoeffField(1), Q0, sp)
    r = CoeffField(1)
    r[(2, 3)] = 2.0 ** (-2 * (sp.s + 0.5)) * Q0.volume ** (-1.0 / sp.p)
    assert is_infty_atom(r, Q0, sp)
    assert not is_infty_atom(r.scaled(2.0), Q0, sp)
    outside = CoeffField(1)
    outside[(2, 0)] = 0.1
    assert not is_infty_atom(outside, Q0, sp)


def test_atomic_decompose_scaled_atom_single_term():
    sp = SpaceParams(0.0, 1.0, 2.0)
    b = CoeffField(1)
    b[(2, 1)] = 3.0 * 2.0 ** (-2 * 0.5) * (2.0**-2) ** (-1.0)
    dec = atomic_decompose(b, sp)
    assert len(dec.lambdas) == 1
    assert abs(dec.lambdas[0] - 3.0) < 1e-12
    assert is_infty_atom(dec.atoms[0], dec.cubes[0], sp)


def test_atomic_decompose_two_disjoint_atoms():
    sp = SpaceParams(0.0, 1.0, 2.0)
    b = CoeffField(1)
    b[(2, 0)] = 3.0 * 2.0**-1 * 4.0
    b[(2, 3)] = 5.0 * 2.0**-1 * 4.0
    dec = atomic_decompose(b, sp)
    assert sorted(np.round(dec.lambdas, 9)) == [3.0, 5.0]
    rec = dec.reconstruct(1)
    assert all(abs(rec[key] - b[key]) < 1e-12 for key in b.entries)


def test_atomic_decompose_random_fields():
    sp = SpaceParams(0.2, 0.7, 1.0)
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        b = CoeffField(1)
        for _ in range(12):
            k = int(rng.integers(0, 5))
            b[(k, int(rng.integers(0, 2**k)))] = complex(rng.standard_normal(), rng.standard_normal())
        dec = atomic_decompose(b, sp)
        rec = dec.reconstruct(1)
        assert max(abs(rec[key] - b[key]) for key in b.entries) < 1e-12
        assert all(is_infty_atom(a, Q, sp) for a, Q in zip(dec.atoms, dec.cubes))
        ratios.append(dec.scalar_lp(sp.p) / sequence_norm(b, sp))
    # the l^p control constant stays in a narrow band across trials
    assert max(ratios) < 4.0
    assert max(ratios) / min(ratios) < 2.5


def test_atomic_decompose_validation():
    with pytest.raises(ValueError):
        atomic_decompose(CoeffField(1), SpaceParams(0.0, 2.0, 2.0))
    with pytest.raises(ValueError):
        atomic_decompose(CoeffField(1), SpaceParams(0.0, 0.8, 0.5))
    empty = atomic_decompose(CoeffField(1), SpaceParams(0.0, 1.0, 2.0))
    assert empty.lambdas == []


# ---------------------------------------------------------------------------
# sharp-maximal characterization
# ---------------------------------------------------------------------------


def test_sharp_norm_constant():
    c = GridFunction.from_samples(G128, np.full(128, 2.0 - 1j))
    val = triebel_sharp_norm(c, P5, SpaceParams(0.0, 4.0, 2.0, "triebel"), 1)
    assert abs(val - abs(2.0 - 1j)) < 1e-10


def test_sharp_norm_equivalence_interval():
    sp = SpaceParams(0.0, 4.0, 2.0, "triebel")
    ratios = {128: [], 256: []}
    for n in (128, 256):
        grid = make_grid(1, n)
        for seed in range(30):
            f = band_limited_function(grid, 28.0, np.random.default_rng(seed))
            a = triebel_sharp_norm(f, P5, sp, 5)
            b = triebel_norm(f, P5, sp)
            ratios[n].append(a / b)
    for n, rs in ratios.items():
        assert 0.2 < min(rs) and max(rs) < 5.0
    # the interval is stable under grid doubling (same inputs, refined grid)
    drift = abs(np.log(max(ratios[256]) / max(ratios[128])))
    assert drift < np.log(1.3)


def test_sharp_norm_single_high_band():
    sp = SpaceParams(0.0, 4.0, 2.0, "triebel")
    x = G128.axis_coords()
    f = GridFunction.from_samples(G128, np.exp(2j * np.pi * 16 * x))  # band 4 >= n = 3
    a = triebel_sharp_norm(f, P5, sp, 3)
    b = triebel_norm(f, P5, sp)
    assert 0.5 <= a / b <= 2.0


def test_sharp_norm_warns_outside_hypothesis():
    f = random_band_limited(0)
    with pytest.warns(UserWarning):
        triebel_sharp_norm(f, P5, SpaceParams(0.0, 2.0, 2.0, "triebel"), 3)
