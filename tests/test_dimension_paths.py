"""The kernels that serve d = 1 and d = 2 through one path give, to the bit,
what the separate per-dimension expressions they replace gave.

Each reference below is such a per-dimension expression, kept here as the
oracle; every comparison is np.array_equal (dtype and shape included).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from torusfs import dyadic, maximal, spaces
from torusfs.experiments import LacunaryConfig, rademacher_multiplier, rademacher_signs
from torusfs.grid import make_grid
from torusfs.littlewood_paley import LPPartition


def ref_block_reduce(arr, mu, op=np.mean):
    n, m = arr.shape[0], 2**mu
    b = n // m
    if arr.ndim == 1:
        return op(arr.reshape(m, b), axis=1)
    return op(arr.reshape(m, b, m, b), axis=(1, 3))


def ref_expand_blocks(blocks, n):
    b = n // blocks.shape[0]
    out = np.repeat(blocks, b, axis=0)
    if blocks.ndim == 2:
        out = np.repeat(out, b, axis=1)
    return out


def ref_fold_spectrum(spec, m):
    n = spec.shape[0]
    if spec.ndim == 1:
        return spec.reshape(n // m, m).sum(axis=0)
    folded = spec.reshape(n // m, m, n).sum(axis=0)
    return folded.reshape(m, n // m, m).sum(axis=1)


def ref_mesh(axis, dim):
    return (axis,) if dim == 1 else tuple(np.meshgrid(axis, axis, indexing="ij"))


def ref_ball_lattice(radius, dim):
    r = int(np.floor(radius))
    axis = np.arange(-r, r + 1)
    if dim == 1:
        return axis.reshape(-1, 1)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts[np.hypot(pts[:, 0], pts[:, 1]) <= radius]


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    same_layout = a.flags.c_contiguous == b.flags.c_contiguous
    return a.dtype == b.dtype and a.shape == b.shape and same_layout and np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    log_n=st.integers(3, 7),
    period=st.sampled_from([1.0, 0.3, 2.0]),
    seed=st.integers(0, 2**16),
    radius=st.floats(0.0, 60.0),
)
def test_one_path_kernels_match_per_dimension_references(d, log_n, period, seed, radius):
    n = 2**log_n
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n,) * d)
    spec = rng.standard_normal((n,) * d) + 1j * rng.standard_normal((n,) * d)
    for mu in range(log_n + 1):
        for op in (np.mean, np.min):
            assert same(dyadic.block_reduce(a, mu, op=op), ref_block_reduce(a, mu, op=op))
        assert same(dyadic.block_reduce(a > 0.3, mu, op=np.all), ref_block_reduce(a > 0.3, mu, op=np.all))
        blocks = ref_block_reduce(a, mu)
        assert same(dyadic.expand_blocks(blocks, n), ref_expand_blocks(blocks, n))
        assert same(spaces._fold_spectrum(spec, 2**mu), ref_fold_spectrum(spec, 2**mu))
    grid = make_grid(d, n, period)
    for got, ref in ((grid.coords(), ref_mesh(grid.axis_coords(), d)), (grid.freqs(), ref_mesh(grid.axis_freqs(), d))):
        assert len(got) == len(ref) == d
        assert all(same(u, v) for u, v in zip(got, ref))
    assert same(maximal._ball_lattice(radius, d), ref_ball_lattice(radius, d))


def ref_closure_2d(cfg, draw):
    """The two-dimensional shell-multiplier closure as it stood before the one path."""
    signs = rademacher_signs(cfg, draw)
    lp = LPPartition(J=3)
    weights = {k: 2.0 ** (cfg.zeta(k) * cfg.m) for k in cfg.scales()}
    boxes = {}
    for k in cfg.scales():
        lo, hi = cfg.shell_bounds(k)
        pts, sg = signs[k]
        box = np.zeros((2 * hi + 1, 2 * hi + 1))
        box[pts[:, 0] + hi, pts[:, 1] + hi] = sg
        boxes[k] = (hi, box)

    def g2(xi1, xi2):
        xi1 = np.asarray(xi1, dtype=float)
        xi2 = np.asarray(xi2, dtype=float)
        b1 = np.floor(xi1).astype(np.int64)
        b2 = np.floor(xi2).astype(np.int64)
        acc = np.zeros(np.broadcast(xi1, xi2).shape, dtype=complex)
        for o1 in range(-2, 4):
            for o2 in range(-2, 4):
                n1, n2 = b1 + o1, b2 + o2
                w = lp.mother(np.hypot(xi1 - n1, xi2 - n2))
                if not np.any(w):
                    continue
                sgn = np.zeros(acc.shape)
                for k in cfg.scales():
                    hi, box = boxes[k]
                    inside = (np.abs(n1) <= hi) & (np.abs(n2) <= hi)
                    vals = np.where(inside, box[np.clip(n1 + hi, 0, 2 * hi), np.clip(n2 + hi, 0, 2 * hi)], 0.0)
                    sgn = np.where(vals != 0, vals * weights[k], sgn)
                acc += sgn * w
        return acc

    return g2


@settings(max_examples=8, deadline=None)
@given(
    L=st.integers(3, 5),
    m=st.sampled_from([0.0, -0.5, 0.3]),
    draw=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_two_dimensional_closure_matches_reference(L, m, draw, seed):
    cfg = LacunaryConfig(L=L, spacing=1, m=m, seed=seed % 7, d=2)
    fn = rademacher_multiplier(cfg, draw=draw).fn
    g2 = ref_closure_2d(cfg, draw)
    rng = np.random.default_rng(seed)
    top = cfg.shell_top()
    xi1, xi2 = rng.uniform(-top - 3, top + 3, (2, 2000))
    got = fn(None, (xi1, xi2))
    assert np.any(got)
    assert same(got, g2(xi1, xi2))
    assert same(fn(None, (np.round(xi1), np.round(xi2))), g2(np.round(xi1), np.round(xi2)))
    # axes that only broadcast together
    assert same(fn(None, (xi1[:40, None], xi2[None, :50])), g2(xi1[:40, None], xi2[None, :50]))
