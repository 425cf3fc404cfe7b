import hashlib

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from torusfs import littlewood_paley, spaces
from torusfs.dyadic import DyadicCube
from torusfs.grid import GridFunction, make_grid
from torusfs.littlewood_paley import band_project, build_partition
from torusfs.maximal import band_limited_function, vector_sharp
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


def _field(dim, pairs):
    """A field from ((k, offset), value) pairs, as deep as the deepest pair;
    a later pair overwrites an earlier one at the same cube."""
    pairs = list(pairs)
    depth = max((k for (k, _), _ in pairs), default=0)
    levels = [np.zeros((2**k,) * dim, dtype=complex) for k in range(depth + 1)]
    for (k, off), v in pairs:
        levels[k][off] = v
    return CoeffField(dim, levels)


def _criterion5_field(seed):
    """Acceptance criterion 5's field: 12 draws at scales 0..4 in d = 1."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(12):
        k = int(rng.integers(0, 5))
        pairs.append(((k, int(rng.integers(0, 2**k))), complex(rng.standard_normal(), rng.standard_normal())))
    return _field(1, pairs)


def test_sequence_norm_single_indicator():
    sp = SpaceParams(0.7, 1.5, 2.0)
    k = 3
    b = _field(1, [((k, 2), 2.0 ** (-k * (sp.s + 0.5)))])
    assert abs(sequence_norm(b, sp) - 2.0 ** (-k / sp.p)) < 1e-12


def test_sequence_norm_empty():
    assert sequence_norm(CoeffField(1), SpaceParams(0.0, 2.0, 2.0)) == 0.0


def test_sequence_norm_p_eq_q_closed_form():
    rng = np.random.default_rng(5)
    sp = SpaceParams(0.3, 1.7, 1.7)
    pairs = []
    for _ in range(10):
        k = int(rng.integers(0, 5))
        off = int(rng.integers(0, 2**k))
        v = complex(rng.standard_normal(), rng.standard_normal())
        pairs.append(((k, off), v))
    b = _field(1, pairs)
    total = 0.0
    for k, level in enumerate(b.levels):
        w = 2.0 ** (k * (sp.s + 0.5)) * np.abs(level)
        total += np.sum(w**sp.p) * 2.0**-k
    assert abs(sequence_norm(b, sp) - total ** (1 / sp.p)) < 1e-10


def _random_field(dim, seed, depth=4, count=12):
    """A sparse field with ``count`` random coefficients at scales 0..depth."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        k = int(rng.integers(0, depth + 1))
        pairs.append(((k, tuple(int(o) for o in rng.integers(0, 2**k, size=dim))), complex(*rng.standard_normal(2))))
    return _field(dim, pairs)


def _g_field_by_cubes(b, sp):
    """g^{s,q}(b) on the finest cells, adding w**q on each cube's cells."""
    n = 2**b.max_depth
    acc = np.zeros((n,) * b.dim)
    for k, level in enumerate(b.levels):
        for off in map(tuple, np.argwhere(level)):
            w = 2.0 ** (k * (sp.s + b.dim / 2.0)) * abs(level[off])
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


def test_coeff_field_rejects_misshapen_levels():
    with pytest.raises(ValueError):
        CoeffField(1, [np.zeros(1), np.zeros(3)])  # scale 1 has 2 cubes, not 3
    with pytest.raises(ValueError):
        CoeffField(2, [np.zeros((1, 1)), np.zeros(2)])  # a 1-d level in a 2-d field
    with pytest.raises(ValueError):
        CoeffField(3)
    empty = CoeffField(2)
    assert empty.max_depth == 0 and len(empty) == 0 and empty.levels[0].shape == (1, 1)


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
    assert v.max_depth == 5 and len(v) == 0  # len counts only the nonzero coefficients
    f, g = random_band_limited(1, radius=12.0), random_band_limited(2, radius=12.0)
    vf = phi_analyze(f, FAM, 5)
    vg = phi_analyze(g, FAM, 5)
    vsum = phi_analyze(f + g, FAM, 5)
    for both, one, other in zip(vsum.levels, vf.levels, vg.levels):
        assert np.max(np.abs(both - (one + other))) < 1e-12


def test_synthesize_single_coefficient_matches_definition():
    v = _field(1, [((3, 5), 1.0)])
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
    v0 = _field(1, [((4, 9), 1.0)])
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
    r = _field(1, [((2, 3), 2.0 ** (-2 * (sp.s + 0.5)) * Q0.volume ** (-1.0 / sp.p))])
    assert is_infty_atom(r, Q0, sp)
    assert not is_infty_atom(r.scaled(2.0), Q0, sp)
    outside = _field(1, [((2, 0), 0.1)])
    assert not is_infty_atom(outside, Q0, sp)


def test_atomic_decompose_scaled_atom_single_term():
    sp = SpaceParams(0.0, 1.0, 2.0)
    b = _field(1, [((2, 1), 3.0 * 2.0 ** (-2 * 0.5) * (2.0**-2) ** (-1.0))])
    dec = atomic_decompose(b, sp)
    assert len(dec.lambdas) == 1
    assert abs(dec.lambdas[0] - 3.0) < 1e-12
    assert is_infty_atom(dec.atoms[0], dec.cubes[0], sp)


def test_atomic_decompose_two_disjoint_atoms():
    sp = SpaceParams(0.0, 1.0, 2.0)
    b = _field(1, [((2, 0), 3.0 * 2.0**-1 * 4.0), ((2, 3), 5.0 * 2.0**-1 * 4.0)])
    dec = atomic_decompose(b, sp)
    assert sorted(np.round(dec.lambdas, 9)) == [3.0, 5.0]
    rec = dec.reconstruct(1)
    assert len(rec.levels) == len(b.levels)
    assert all(np.max(np.abs(r - level)) < 1e-12 for r, level in zip(rec.levels, b.levels))


def test_atomic_decompose_random_fields():
    sp = SpaceParams(0.2, 0.7, 1.0)
    ratios = []
    for seed in range(20):
        b = _criterion5_field(seed)
        dec = atomic_decompose(b, sp)
        rec = dec.reconstruct(1)
        assert len(rec.levels) == len(b.levels)
        assert max(np.max(np.abs(r - level)) for r, level in zip(rec.levels, b.levels)) < 1e-12
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
    assert len(empty.reconstruct(2)) == 0


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
    depth=st.integers(0, 5),
    count=st.integers(1, 20),
    p=st.sampled_from([0.5, 0.7, 1.0]),
    q=st.sampled_from([0.5, 0.7, 1.0, 2.0, np.inf]),
    s=st.sampled_from([-0.5, 0.0, 0.3]),
)
def test_atomic_decompose_reconstructs_with_atoms(dim, seed, depth, count, p, q, s):
    if q < p:
        q = p
    b = _random_field(dim, seed, min(depth, 5 if dim == 1 else 3), count)
    sp = SpaceParams(s, p, q)
    dec = atomic_decompose(b, sp)
    rec = dec.reconstruct(dim)
    scale = max(np.max(np.abs(level)) for level in b.levels)
    assert len(rec.levels) == len(b.levels)
    assert all(np.max(np.abs(r - level)) <= 1e-12 * scale for r, level in zip(rec.levels, b.levels))
    assert all(lam > 0 for lam in dec.lambdas)
    assert all(is_infty_atom(a, Q, sp) for a, Q in zip(dec.atoms, dec.cubes))


# sha-256 of the decompositions below, taken before atomic_decompose worked on
# dense levels; it covers every lambda, support cube and atom level, each
# reconstruction and each sequence norm, bit for bit
DECOMPOSITION_DIGEST = "a8647e85021abc15b929d24fa8504b545ecbdafec0c6fb2143160ce962f447e6"
GENERATED_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}


def _decomposition_cases():
    cases = [(_criterion5_field(seed), SpaceParams(0.2, 0.7, 1.0)) for seed in range(20)]
    for i in range(30):
        dim = 1 + i % 2
        p = (0.5, 0.7, 1.0)[i % 3]
        q = (p, 1.0, 2.0, np.inf)[i // 3 % 4]
        b = _random_field(dim, [19, i], 5 if dim == 1 else 3, 4 + i % 11)
        cases.append((b, SpaceParams(0.3 * (i % 5 - 2), p, q)))
    return cases


def test_atomic_decompose_bits_match_pinned_digest():
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if versions != GENERATED_WITH:
        pytest.skip(f"digest was generated with {GENERATED_WITH}, running {versions}")
    h = hashlib.sha256()
    for b, sp in _decomposition_cases():
        dec = atomic_decompose(b, sp)
        for lam, atom, cube in zip(dec.lambdas, dec.atoms, dec.cubes):
            h.update(f"{lam.hex()} {cube.k} {cube.offset};".encode())
            for level in atom.levels:
                h.update(level.tobytes())
        for level in dec.reconstruct(b.dim).levels:
            h.update(level.tobytes())
        h.update(sequence_norm(b, sp).hex().encode())
    assert h.hexdigest() == DECOMPOSITION_DIGEST


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


@pytest.mark.parametrize("J, n", [(3, 2), (5, 3), (5, 7)])
def test_sharp_norm_projects_each_band_once(monkeypatch, J, n):
    part = build_partition(J)
    sp = SpaceParams(0.4, 3.0, 1.5, "triebel")
    f = random_band_limited(J)
    # the formula with each band projected afresh for the head and for the stack
    head = sum(2.0 ** (sp.s * j) * band_project(f, part, j).lp_norm(sp.p) for j in range(min(n, J + 1)))
    bands = [GridFunction.from_samples(f.grid, 2.0 ** (sp.s * k) * band_project(f, part, k).samples) for k in range(1, J + 1)]
    sharp = vector_sharp(bands, sp.q, n, k0=1)
    expected = float(head + GridFunction.from_samples(f.grid, sharp.samples.real).lp_norm(sp.p))
    calls = []
    monkeypatch.setattr(spaces, "band_project", lambda *a: calls.append(a[2]) or band_project(*a))
    assert triebel_sharp_norm(f, part, sp, n) == expected
    assert sorted(calls) == list(range(J + 1))


def test_sharp_norm_warns_outside_hypothesis():
    f = random_band_limited(0)
    with pytest.warns(UserWarning):
        triebel_sharp_norm(f, P5, SpaceParams(0.0, 2.0, 2.0, "triebel"), 3)
