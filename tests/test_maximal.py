import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusfs import cli, maximal
from torusfs.grid import GridFunction, make_grid
from torusfs.maximal import (
    PeetreParams,
    audit_fefferman_stein,
    audit_fs_vector_inequality,
    audit_infty_maximal,
    audit_peetre_domination,
    audit_sharp_domination,
    band_limited_function,
    dyadic_sharp,
    hl_maximal,
    peetre_maximal,
    vector_sharp,
)


def random_function(grid, seed):
    rng = np.random.default_rng(seed)
    return GridFunction.from_samples(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def test_hl_constant():
    g = make_grid(1, 32)
    c = GridFunction.from_samples(g, np.full(32, 3.0))
    for variant in ("centered", "dyadic"):
        for t in (0.5, 1.0, 2.0):
            out = hl_maximal(c, variant, t)
            assert np.max(np.abs(out.samples.real - 3.0)) < 1e-12


def _centered_reference(f, t):
    """The centered maximal function as one scipy uniform_filter call per odd width."""
    from scipy import ndimage

    a = np.abs(f.samples) ** t
    acc = a.copy()
    np.maximum(acc, a.mean(), out=acc)
    for w in range(3, f.grid.n, 2):
        np.maximum(acc, ndimage.uniform_filter(a, size=w, mode="wrap"), out=acc)
    return acc ** (1.0 / t)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(1, 2**k) for k in range(4, 11)] + [(2, 32), (2, 64)]),
    t=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 2**16),
)
def test_centered_hl_matches_uniform_filter_loop(shape, t, seed):
    f = random_function(make_grid(*shape), seed)
    assert np.array_equal(hl_maximal(f, "centered", t).samples.real, _centered_reference(f, t))


def _box_means_along_axis0(b, ks):
    """Every block _box_means yields for b of shape (n, 1 or len(ks), lines), stacked in position order."""
    n, k = b.shape[0], int(ks[-1])
    P = np.empty((n + 2 * k + 1,) + b.shape[1:])
    P[k + 1 : k + 1 + n] = b
    blocks = [(x0, means.copy()) for x0, means in maximal._box_means(maximal._wrap(P, k), ks, n)]
    assert [x0 for x0, _ in blocks] == list(np.cumsum([0] + [len(m) for _, m in blocks[:-1]]))
    return np.concatenate([means for _, means in blocks])


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(2**k,) for k in range(3, 12)] + [(n, n) for n in (8, 16, 32, 64)]),
    kind=st.sampled_from(["zero", "sparse", "wide"]),
    first=st.floats(0, 1),
    last=st.floats(0, 1),
    block_points=st.integers(1, 5000),
    mask_points=st.integers(1, 5000),
    seed=st.integers(0, 2**16),
)
def test_box_means_match_uniform_filter1d_at_every_width(shape, kind, first, last, block_points, mask_points, seed):
    from scipy import ndimage

    rng = np.random.default_rng(seed)

    def draw(shape):
        if kind == "zero":
            return np.zeros(shape)
        if kind == "sparse":
            return np.where(rng.random(shape) < 0.9, 0.0, rng.random(shape))
        return 10.0 ** rng.uniform(-150, 150, shape)  # 300 decades

    n = shape[0]
    # any run of two or more half-widths (a row of one sum is not a case _box_max makes)
    k0 = 1 + int(first * (n // 2 - 3))
    ks = np.arange(k0, k0 + 2 + int(last * (n // 2 - 2 - k0)))
    a = draw(shape)
    own = draw((n, ks.size) + shape[1:])  # an input per width, as the axis-1 pass of a 2-D grid reads
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maximal, "_BOX_BLOCK_POINTS", block_points)  # blocks from one row up
        mp.setattr(maximal, "_BOX_CHUNK_POINTS", mask_points)  # first window sums from pieces of two widths up
        shared = _box_means_along_axis0(a.reshape(n, 1, -1), ks)  # one input for every width
        separate = _box_means_along_axis0(own.reshape(n, ks.size, -1), ks)
    for j, k in enumerate(ks):
        w = 2 * int(k) + 1
        assert np.array_equal(shared[:, j].reshape(shape), ndimage.uniform_filter1d(a, w, 0, mode="wrap")), k
        assert np.array_equal(separate[:, j].reshape(shape), ndimage.uniform_filter1d(own[:, j], w, 0, mode="wrap")), k


@pytest.mark.parametrize("shape", [(1, 64), (1, 512), (2, 16), (2, 32)])
def test_centered_hl_matches_in_small_chunks_and_blocks(monkeypatch, shape):
    # the widths of a 2-D grid split into chunks of one, two, ... widths, and every block holds one to a few rows
    f = random_function(make_grid(*shape), 7)
    for chunk_points, block_points in [(1, 1), (2 * f.grid.n**2, 100), (5 * f.grid.n**2, 3000)]:
        monkeypatch.setattr(maximal, "_BOX_CHUNK_POINTS", chunk_points)
        monkeypatch.setattr(maximal, "_BOX_BLOCK_POINTS", block_points)
        for t in (0.5, 2.0):
            assert np.array_equal(hl_maximal(f, "centered", t).samples.real, _centered_reference(f, t))


def test_hl_t_validation():
    g = make_grid(1, 32)
    f = random_function(g, 0)
    with pytest.raises(ValueError):
        hl_maximal(f, "dyadic", 0.0)
    with pytest.raises(ValueError):
        hl_maximal(f, "sideways", 1.0)


def test_hl_dyadic_half_indicator():
    g = make_grid(1, 64)
    x = g.axis_coords()
    chi = GridFunction.from_samples(g, (x < 0.5).astype(complex))
    out = hl_maximal(chi, "dyadic", 1.0).samples.real
    assert np.max(np.abs(out[:32] - 1.0)) < 1e-12  # any cube inside [0, 1/2)
    assert np.max(np.abs(out[32:] - 0.5)) < 1e-12  # best cube is the whole torus


def test_centered_dominates_dyadic_up_to_alignment():
    g = make_grid(1, 128)
    for seed in range(5):
        f = random_function(g, seed)
        for t in (1.0, 2.0):
            dy = hl_maximal(f, "dyadic", t).samples.real
            ce = hl_maximal(f, "centered", t).samples.real
            ratio = np.max(dy / ce)
            assert ratio <= 2.0 ** (1.0 / t) * (1 + 1e-9)


def test_peetre_constant_and_large_sigma():
    g = make_grid(1, 64)
    c = GridFunction.from_samples(g, np.full(64, -2.0 + 1j))
    out = peetre_maximal(c, PeetreParams(3.0, 8.0))
    assert np.max(np.abs(out.samples.real - abs(-2.0 + 1j))) < 1e-12
    f = random_function(g, 3)
    out = peetre_maximal(f, PeetreParams(1000.0, 16.0))
    assert np.max(np.abs(out.samples.real - np.abs(f.samples))) < 1e-10


def brute_peetre(f, params):
    """max over every lattice shift s of w(s) |f(x + s)|, with no early stop."""
    a = np.abs(f.samples)
    n, d = f.grid.n, f.grid.dim
    k = np.arange(n)
    axis = np.minimum(k / n, 1.0 - k / n)
    dist = axis if d == 1 else np.hypot(axis[:, None], axis[None, :])
    w = (1.0 + params.r * dist) ** (-params.sigma)
    wrap = (k[:, None] + k[None, :]) % n  # wrap[s, x] = x + s mod n
    if d == 1:
        out = (w[:, None] * a[wrap]).max(axis=0)
    else:
        out = np.zeros(a.shape)
        for s0 in range(n):
            shifted = a[wrap[s0]][:, wrap]  # shifted[x0, s1, x1] = a[x0 + s0, x1 + s1]
            np.maximum(out, (w[s0][None, :, None] * shifted).max(axis=1), out=out)
    return GridFunction.from_samples(f.grid, out)


def test_brute_peetre_matches_pointwise_sup():
    g = make_grid(1, 64)
    x = g.axis_coords()
    f = GridFunction.from_samples(g, np.exp(2j * np.pi * 4 * x))
    n = g.n
    dist = np.minimum(np.arange(n) / n, 1.0 - np.arange(n) / n)
    w = (1.0 + 16.0 * dist) ** -2.0
    af = np.abs(f.samples)
    pointwise = np.array([max(af[(i + s) % n] * w[s] for s in range(n)) for i in range(n)])
    assert np.array_equal(brute_peetre(f, PeetreParams(2.0, 16.0)).samples.real, pointwise)


@st.composite
def peetre_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([16, 32, 64, 128, 256] if d == 1 else [16, 32, 64]))
    g = make_grid(d, n)
    kind = draw(st.sampled_from(["random", "spike", "constant", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        samples = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    elif kind == "spike":  # one nonzero sample: the scan never stops early
        samples = np.zeros(g.shape, dtype=complex)
        samples[tuple(rng.integers(n, size=d))] = rng.uniform(0.5, 2.0)
    elif kind == "constant":  # the scan stops before its first block after shift 0
        samples = np.full(g.shape, complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)))
    else:  # max|f| = 0
        samples = np.zeros(g.shape)
    sigma = draw(st.floats(0.25, 8.0))
    r = draw(st.floats(1.0, n / 2))
    return GridFunction.from_samples(g, samples), PeetreParams(sigma, r)


@settings(deadline=None, max_examples=60)
@given(peetre_cases())
def test_peetre_brute_force_oracle(case):
    # the blocked, early-stopping scan equals the all-shifts maximum to the bit
    f, params = case
    assert np.array_equal(peetre_maximal(f, params).samples, brute_peetre(f, params).samples)


def test_maximal_audit_reports_match_brute_force_scan(tmp_path, monkeypatch):
    suites = ("peetre", "vector-maximal", "cube-tail", "sharp-domination")

    def run(outdir):
        for suite in suites:
            assert cli.main(["audit", "--suite", suite, "--trials", "2", "--seed", "3", "--outdir", str(outdir)]) == 0

    run(tmp_path / "scan")
    monkeypatch.setattr(maximal, "peetre_maximal", brute_peetre)
    run(tmp_path / "brute")
    names = sorted(p.name for p in (tmp_path / "scan").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "brute").iterdir())
    assert len(names) == 14
    for name in names:
        assert (tmp_path / "scan" / name).read_bytes() == (tmp_path / "brute" / name).read_bytes(), name


def _reference_band_family(grid, ks, seed, trial):
    """The band family drawn as a whole, as the audits drew it before bands were shared."""
    kind = ("spikes-aligned", "random", "spikes-staggered")[trial % 3]
    fam = []
    for k in ks:
        rng = np.random.default_rng([seed, k, trial])
        if kind == "random":
            fam.append(band_limited_function(grid, 2.0 ** (k + 1), rng, kind="random"))
        elif kind == "spikes-aligned":
            fam.append(band_limited_function(grid, 2.0 ** (k + 1), rng, kind="spike"))
        else:
            anchor = np.full(grid.dim, (trial % 7) / 7.0 + k / 37.0)
            fam.append(band_limited_function(grid, 2.0 ** (k + 1), rng, kind="spike", anchor=anchor))
    return fam


def _reference_band_stacks(seed, sigma, q):
    """Stacks rebuilt at every sweep point from the whole family, zero bands of the cube-tail witness included."""

    def stacks(grid, ks, trial):
        if trial < 0:
            anchor = np.full(grid.dim, 0.5 + 3.0 / grid.n)
            fam = [GridFunction.from_spectrum(grid, np.zeros(grid.shape, dtype=complex)) for _ in ks[:-1]]
            fam.append(band_limited_function(grid, 2.0 ** (ks[-1] + 1), None, kind="spike", anchor=anchor))
        else:
            fam = _reference_band_family(grid, ks, seed, trial)
        plain = np.zeros(grid.shape)
        maxed = np.zeros(grid.shape)
        for k, u in zip(ks, fam):
            plain += np.abs(u.samples) ** q
            maxed += peetre_maximal(u, PeetreParams(sigma, 2.0**k)).samples.real ** q
        return plain, maxed

    return stacks


def test_shared_band_stacks_match_per_sweep_point_reference(tmp_path, monkeypatch):
    suites = ("cube-tail", "vector-maximal", "sharp-domination")

    def run(outdir):
        for seed in ("3", "8"):
            for suite in suites:
                args = ["audit", "--suite", suite, "--trials", "2", "--seed", seed, "--outdir", str(outdir / seed)]
                assert cli.main(args) == 0

    run(tmp_path / "shared")
    monkeypatch.setattr(maximal, "_band_stacks", _reference_band_stacks)
    monkeypatch.setattr(maximal, "_band", lambda grid, k, seed, trial: _reference_band_family(grid, [k], seed, trial)[0])
    run(tmp_path / "reference")
    for seed in ("3", "8"):
        names = sorted(p.name for p in (tmp_path / "shared" / seed).iterdir())
        assert names == sorted(p.name for p in (tmp_path / "reference" / seed).iterdir())
        assert len(names) == 10
        for name in names:
            assert (tmp_path / "shared" / seed / name).read_bytes() == (tmp_path / "reference" / seed / name).read_bytes(), name


def _count_peetre_calls(monkeypatch):
    calls = []
    scan = maximal.peetre_maximal
    monkeypatch.setattr(maximal, "peetre_maximal", lambda f, params: calls.append(params) or scan(f, params))
    return calls


def test_band_family_audits_compute_each_maximal_function_once(tmp_path, monkeypatch):
    # every (grid, band, trial) pair once per audit call: 2 audits x 2 grids x 5 bands x 10 trials for
    # vector-maximal, 2 x (6 bands x 6 trials + 3 witnesses) for cube-tail; peetre and sharp-domination as before
    expected = {"peetre": 120, "vector-maximal": 200, "cube-tail": 78, "sharp-domination": 100}
    calls = _count_peetre_calls(monkeypatch)
    for suite, count in expected.items():
        calls.clear()
        assert cli.main(["audit", "--suite", suite, "--seed", "0", "--outdir", str(tmp_path)]) == 0
        assert len(calls) == count, suite


def test_band_family_audits_run_on_defaults_and_check_bands_first(monkeypatch):
    rep = audit_fs_vector_inequality()
    assert rep.params["J_list"] == [3, 4, 5]
    calls = _count_peetre_calls(monkeypatch)
    too_fine = [
        lambda: audit_peetre_domination(bands=5),
        lambda: audit_fs_vector_inequality(J_list=(3, 4, 5, 6)),
        lambda: audit_infty_maximal(n=64),
        lambda: audit_sharp_domination(J=7),
    ]
    for audit in too_fine:
        with pytest.raises(ValueError, match="needs a finer grid"):
            audit()
    assert calls == []


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 1000))
def test_peetre_invariants(seed):
    g = make_grid(1, 64)
    f = random_function(g, seed)
    params = PeetreParams(1.5, 8.0)
    mf = peetre_maximal(f, params).samples.real
    assert np.all(mf >= np.abs(f.samples) - 1e-12)
    # monotone in the argument
    bigger = GridFunction.from_samples(g, np.abs(f.samples) + 0.5)
    assert np.all(peetre_maximal(bigger, params).samples.real >= mf - 1e-12)
    # monotone decreasing in sigma
    msmall = peetre_maximal(f, PeetreParams(3.0, 8.0)).samples.real
    assert np.all(msmall <= mf + 1e-12)


def test_dyadic_sharp_examples():
    g = make_grid(1, 64)
    c = GridFunction.from_samples(g, np.full(64, 7.0))
    assert np.max(dyadic_sharp(c).samples.real) < 1e-12
    x = g.axis_coords()
    chi = GridFunction.from_samples(g, (x < 0.5).astype(complex))
    out = dyadic_sharp(chi).samples.real
    assert np.max(np.abs(out - 0.5)) < 1e-12
    f = random_function(g, 4)
    assert np.max(dyadic_sharp(f).samples.real) <= 2 * np.max(np.abs(f.samples)) + 1e-12


def test_dyadic_sharp_vs_maximal_pointwise():
    g = make_grid(1, 128)
    for seed in range(5):
        f = random_function(g, seed)
        sharp = dyadic_sharp(f).samples.real
        maxi = hl_maximal(f, "dyadic", 1.0).samples.real
        assert np.all(sharp <= 2 * maxi + 1e-12)


def test_vector_sharp_single_band_constant():
    g = make_grid(1, 32)
    c = GridFunction.from_samples(g, np.full(32, 3.0 - 4j))
    out = vector_sharp([c], 2.0, 3, k0=3)
    assert np.max(np.abs(out.samples.real - 5.0)) < 1e-12


def test_vector_sharp_zero():
    g = make_grid(1, 32)
    z = GridFunction.from_samples(g, np.zeros(32))
    assert np.max(vector_sharp([z, z], 1.5, 2, k0=2).samples.real) == 0.0


def test_vector_sharp_exhaustive_oracle():
    g = make_grid(1, 16)
    rng = np.random.default_rng(1)
    g1 = GridFunction.from_samples(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    g2 = GridFunction.from_samples(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    q, ncut = 2.0, 2
    got = vector_sharp([g1, g2], q, ncut, k0=2).samples.real
    pows = [np.abs(g1.samples) ** q, np.abs(g2.samples) ** q]

    def oracle(i):
        best = 0.0
        for mu in range(5):
            w = 16 >> mu
            sel = slice((i // w) * w, (i // w + 1) * w)
            tot = sum(pw[sel].mean() for k, pw in zip([2, 3], pows) if k >= max(ncut, mu))
            best = max(best, tot ** (1 / q))
        return best

    brute = np.array([oracle(i) for i in range(16)])
    assert np.max(np.abs(got - brute)) < 1e-10


def test_vector_sharp_empty():
    with pytest.raises(ValueError):
        vector_sharp([], 2.0, 1)


def test_peetre_domination_audit():
    rep, below = audit_peetre_domination(bands=3, trials=8, sigmas=(1.5, 0.5), t=1.0, ns=(256, 512), seed=0)
    assert rep.passed
    assert rep.details["doubling_drift"] <= 0.10
    assert not rep.details["outside_hypothesis"]
    assert not below.passed
    assert below.details["outside_hypothesis"]


def test_peetre_domination_constant_inputs_have_unit_ratio():
    g = make_grid(1, 64)
    c = GridFunction.from_samples(g, np.full(64, 2.0))
    num = peetre_maximal(c, PeetreParams(2.0, 8.0)).samples.real
    den = hl_maximal(c, "centered", 1.0).samples.real
    assert np.max(np.abs(num / den - 1.0)) < 1e-12


def test_vector_inequality_audit():
    rep = audit_fs_vector_inequality(p=2.0, q=2.0, sigma=2.0, J_list=(3, 4, 5), trials=6, ns=(256, 512), seed=0)
    assert rep.passed
    rep = audit_fs_vector_inequality(p=2.0, q=2.0, sigma=0.2, J_list=(3, 4, 5), trials=6, ns=(256, 512), seed=0)
    assert not rep.passed
    assert rep.details["outside_hypothesis"]


def test_infty_maximal_audit():
    rep = audit_infty_maximal(q=2.0, sigma=1.0, J_list=(3, 4, 5), trials=5, n=256, seed=0)
    assert rep.passed
    rep = audit_infty_maximal(q=2.0, sigma=0.3, J_list=(3, 4, 5), trials=5, n=256, seed=0)
    assert not rep.passed


def test_sharp_domination_audit():
    rep = audit_sharp_domination(q=2.0, J=5, trials=6, ns=(256, 512), seed=0)
    assert rep.passed
    assert np.isfinite(rep.constant)
    # constants-only family: the weighted sup changes nothing
    g = make_grid(1, 64)
    fam = [GridFunction.from_samples(g, np.full(64, 1.0 + 0.5j)) for _ in range(3)]
    major = [peetre_maximal(u, PeetreParams(3.0, 2.0**k)) for k, u in zip([1, 2, 3], fam)]
    num = vector_sharp(major, 2.0, 1, k0=1).samples.real
    den = vector_sharp(fam, 2.0, 1, k0=1).samples.real
    assert np.max(num / den) <= 1 + 1e-10


def test_fefferman_stein_audit():
    for p, rep in zip((1.5, 2.0, 4.0), audit_fefferman_stein(ps=(1.5, 2.0, 4.0), trials=20, ns=(128, 256), seed=0)):
        assert rep.passed, f"p={p}: drift {rep.details['doubling_drift']}"


def test_band_limited_function_seed_stability_across_grids():
    coarse = band_limited_function(make_grid(1, 128), 16.0, np.random.default_rng(7))
    fine = band_limited_function(make_grid(1, 256), 16.0, np.random.default_rng(7))
    # identical trigonometric polynomial: fine samples at even indices match
    assert np.max(np.abs(fine.samples[::2] - coarse.samples)) < 1e-10


def test_maximal_operators_in_two_dimensions():
    g = make_grid(2, 16)
    rng = np.random.default_rng(0)
    f = GridFunction.from_samples(g, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    mf = peetre_maximal(f, PeetreParams(2.5, 4.0)).samples.real
    assert np.all(mf >= np.abs(f.samples) - 1e-12)
    # brute-force a few points
    dist = np.minimum(np.arange(16) / 16, 1 - np.arange(16) / 16)
    dd = np.hypot(dist[:, None], dist[None, :])
    w = (1 + 4.0 * dd) ** -2.5
    af = np.abs(f.samples)
    for (i, j) in [(0, 0), (3, 11), (15, 7)]:
        brute = max(af[(i + a) % 16, (j + b) % 16] * w[a, b] for a in range(16) for b in range(16))
        assert abs(mf[i, j] - brute) < 1e-12
    dy = hl_maximal(f, "dyadic", 1.0).samples.real
    ce = hl_maximal(f, "centered", 1.0).samples.real
    assert np.max(dy / ce) <= 4.0 * (1 + 1e-9)  # factor 2^d in two dimensions
    sharp = dyadic_sharp(f).samples.real
    assert np.all(sharp <= 2 * hl_maximal(f, "dyadic", 1.0).samples.real + 1e-12)
    vs = vector_sharp([f], 2.0, 1, k0=1).samples.real
    assert vs.shape == (16, 16)
