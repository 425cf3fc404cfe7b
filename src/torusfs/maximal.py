"""Maximal operators on the torus and empirical audits of their inequalities.

Implements the Hardy-Littlewood maximal operator (centered and dyadic), the
decay-weighted shifted supremum operator used to control band-limited
functions, dyadic sharp (mean-oscillation) maximal functions, and their
vector-valued combinations over band families.  The audit functions measure
the constants in the corresponding inequalities over seeded random families
and report growth/stability diagnostics.  Each audit call computes a seeded
input and its parameter-free maximal functions once, for every sweep point.

Each operator is a kernel on a stack of lines, shape (lines, *grid shape):
_hl_lines, _peetre_lines, _sharp_lines and _vector_sharp_lines.  An audit
draws a sweep point's trials as one stack of spectra, makes their samples
with one inverse FFT and calls each kernel once on the stack; the public
functions are the same kernels on a stack of one line.  Every line gets the
float64 operations of a call on that line alone, in the same order, and the
block and chunk caps (_SCAN_BLOCK_POINTS, _BOX_BLOCK_POINTS,
_BOX_CHUNK_POINTS) hold over the whole stack: a block gathered or summed
for a stack is no larger than one for a single line.  Only the stack's own
copies (the periodic tiling the scan gathers from, the wrapped rows of the
box means) grow with its number of lines.

All suprema over continuous shifts are taken over the sample lattice with
periodic distance; inputs are band-limited so this is a faithful desk-scale
realization.

The centered maximal function takes the wrapped box mean of every odd
width w = 2k+1 < n.  Per width and axis, the mean sums the first window
(x-k..x+k, wrapped) left to right from 0.0, adds one (entering - leaving)
difference per step, and divides each running sum by w; a 2-D grid filters
axis 0, then axis 1.  scipy.ndimage.uniform_filter in mode='wrap' does the
same arithmetic, and the tests compare the two bit for bit.  Here numpy
alone computes every width at once through strided views, with one
vectorized add per position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .dyadic import cube_blocks, grid_depth
from .grid import Grid, GridFunction, inverse_lines, lp_norms
from .report import AuditReport, _best, _drift, _fit_slope

__all__ = [
    "PeetreParams",
    "hl_maximal",
    "peetre_maximal",
    "dyadic_sharp",
    "vector_sharp",
    "band_limited_function",
    "audit_peetre_domination",
    "audit_fs_vector_inequality",
    "audit_infty_maximal",
    "audit_sharp_domination",
    "audit_fefferman_stein",
]

_SLOPE_TOL = 0.15  # max log2-slope of a constant sweep still counted as stable
_DRIFT_TOL = 0.10  # max relative drift of a constant under grid doubling


@dataclass(frozen=True)
class PeetreParams:
    """Decay exponent sigma and scale r of the shifted-supremum operator."""

    sigma: float
    r: float

    def __post_init__(self):
        if self.sigma <= 0 or self.r <= 0:
            raise ValueError("sigma and r must be positive")


def _periodic_shift_distance(grid: Grid) -> np.ndarray:
    """|y| for every lattice shift y, with periodic wrap, FFT-free layout."""
    n, period = grid.n, grid.period
    axis = np.arange(n) * (period / n)
    axis = np.minimum(axis, period - axis)
    if grid.dim == 1:
        return axis
    ax, ay = np.meshgrid(axis, axis, indexing="ij")
    return np.hypot(ax, ay)


_BOX_BLOCK_POINTS = 2**16  # running sums per block of rows: one buffer, small enough to stay in cache
_BOX_CHUNK_POINTS = 2**18  # cap on a window mask's entries, and on widths x points of a 2-D chunk (its first-pass means)


def _wrap(P: np.ndarray, k: int) -> np.ndarray:
    """Fill the k+1 rows before and the k after P's middle n rows b: then P[k + 1 + i] == b[i mod n]."""
    n = len(P) - 2 * k - 1
    P[: k + 1], P[k + 1 + n :] = P[n : n + k + 1], P[k + 1 : 2 * k + 1]
    return P


def _box_means(P: np.ndarray, ks: np.ndarray, n: int):
    """Yield (x0, means): wrapped box means along axis 0, a block of positions at a time.

    P holds b of shape (n, 1 or len(ks), lines) wrapped by _wrap(P, ks[-1]),
    and ks is a run of consecutive half-widths.  means[i, j, l] is the mean
    of width w = 2 ks[j] + 1 at position x0 + i of line l (of b[:, j, l]
    when b has a widths axis).  The sum at position 0 is
    0.0 + b[-k] + ... + b[k], left to right; each later position x adds the
    difference b[x+k] - b[x-1-k] to the sum before it; every sum is divided
    by w.  Each block is a view into one buffer, overwritten by the next.

    The first sums come from masked np.add.reduce calls over axis 0, a few
    widths at a time.  numpy sums pairwise only when the reduced axis is its
    innermost loop; here a row holds two or more sums (two or more widths,
    or lines), the innermost loop runs along it, and the rows are added one
    at a time, in order.
    """
    k, k0 = int(ks[-1]), int(ks[0])
    P = np.broadcast_to(P, P.shape[:1] + ks.shape + P.shape[2:])
    sr, sj, sl = P.strides

    def diagonal(start, step, rows):  # [r, j, l] = P[start + r + step * j, j, l]
        return as_strided(P[start:], (rows,) + P.shape[1:], (sr, sj + step * sr, sl), writeable=False)

    window = diagonal(1 + k - k0, -1, 2 * k + 1)  # row s: b[s - k_j], in width j's first window while s <= 2 k_j
    running = np.empty(P.shape[1:])
    for part in np.array_split(np.arange(ks.size), max(1, min(ks.size // 2, ks.size * (2 * k + 1) // _BOX_CHUNK_POINTS))):
        j = slice(part[0], part[-1] + 1)  # about _BOX_CHUNK_POINTS mask entries, and one width only if ks has one
        in_window = (np.arange(2 * k + 1, dtype=ks.dtype)[:, None] <= 2 * ks[j])[..., None]
        np.add.reduce(window[:, j], axis=0, where=in_window, initial=0.0, out=running[j])
    entering, leaving = diagonal(1 + k + k0, 1, n), diagonal(k - k0, -1, n)  # row x: b[x + k_j], b[x - 1 - k_j]
    w = 2.0 * ks[:, None] + 1
    buf = np.empty((max(1, _BOX_BLOCK_POINTS // running.size),) + running.shape)
    for x0 in range(0, n, len(buf)):
        block = buf[: n - x0]
        np.subtract(entering[x0 : x0 + len(block)], leaving[x0 : x0 + len(block)], out=block)
        if x0 == 0:
            block[0] = 0.0  # position 0 is the first window sum itself
        # one vectorized add per row; np.add.accumulate adds in the same order, a column at a time, several times slower
        prev = running
        for row in list(block):
            np.add(prev, row, out=row)
            prev = row
        running[...] = prev
        np.divide(block, w, out=block)
        yield x0, block


def _box_max(a: np.ndarray) -> np.ndarray:
    """The max over the odd widths 3 .. n-1 of the wrapped box means of each line of a stack a, shape (lines, *grid shape).

    Every line is filtered along its axis 0, all lines side by side; a line
    of a 2-D grid is then filtered along its axis 1.  The widths run in
    chunks: all at once in 1-D, at most _BOX_CHUNK_POINTS / a.size at a
    time in 2-D (a.size counts every line), whose axis-0 means are kept
    whole for the axis-1 pass.
    """
    lines, n, dim = len(a), a.shape[-1], a.ndim - 1
    ks = np.arange(1, n // 2, dtype=np.int32)  # int32 keeps the window mask cheap
    K = int(ks[-1])
    b = np.moveaxis(a, 1, 0).reshape(n, -1)  # b[x, (line, y)]: axis 0 of every line
    A = np.empty((n + 2 * K + 1, 1, b.shape[1]))  # b, wrapped for the widest window
    A[K + 1 : K + 1 + n, 0] = b
    _wrap(A, K)
    top = np.full(b.shape, -np.inf)
    per_chunk = ks.size if dim == 1 else max(1, _BOX_CHUNK_POINTS // a.size)
    for i in range(0, ks.size, per_chunk):
        kc = ks[i : i + per_chunk]
        k = int(kc[-1])
        P = A[K - k : K + k + 1 + n]  # the same periodic rows, wrapped for this chunk
        if dim == 2:  # the axis-1 pass reads the axis-0 means transposed: Q[k + 1 + y, j, (line, x)]
            Q = np.empty((n + 2 * k + 1, kc.size, b.shape[1]))
            into = Q[k + 1 : k + 1 + n].reshape(n, kc.size, lines, n)
            for x0, means in _box_means(P, kc, n):
                into[..., x0 : x0 + len(means)] = means.reshape(len(means), kc.size, lines, n).transpose(3, 1, 2, 0)
            P = _wrap(Q, k)
        for x0, means in _box_means(P, kc, n):
            part = top[x0 : x0 + len(means)]
            np.maximum(part, means.max(axis=1), out=part)
    return np.moveaxis(top.reshape((n, lines) + (n,) * (dim - 1)), 0, -1)  # top[y, (line, x)] -> [line, x, y]


def _cube_means(a: np.ndarray, mu: int) -> np.ndarray:
    """Means of each line of a stack over the dyadic cubes of side 2^-mu, shaped to broadcast over cube_blocks(., mu)."""
    dim = a.ndim - 1
    return cube_blocks(a, mu, dim).mean(axis=tuple(range(2, 2 * dim + 1, 2)), keepdims=True)


def _fold_cubes(acc: np.ndarray, mu: int, values: np.ndarray) -> None:
    """acc = max(acc, values) in place, values holding one number per dyadic cube of side 2^-mu (from _cube_means)."""
    view = cube_blocks(acc, mu, acc.ndim - 1)
    np.maximum(view, values, out=view)


def _hl_lines(a: np.ndarray, variant: str, t: float) -> np.ndarray:
    """hl_maximal of each line of a stack a = |f|, shape (lines, *grid shape)."""
    if t <= 0:
        raise ValueError("t must be positive")
    a = a**t
    if variant == "dyadic":
        acc = np.full(a.shape, -np.inf)
        for mu in range(grid_depth(a.shape[-1]) + 1):
            _fold_cubes(acc, mu, _cube_means(a, mu))
    elif variant == "centered":
        acc = a.copy()  # width-1 window: the point itself
        np.maximum(acc, a.reshape(len(a), -1).mean(axis=1).reshape((-1,) + (1,) * (a.ndim - 1)), out=acc)  # the whole torus
        np.maximum(acc, _box_max(a), out=acc)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return acc ** (1.0 / t)


def hl_maximal(f: GridFunction, variant: str = "centered", t: float = 1.0) -> GridFunction:
    """Pointwise sup of t-averages over cubes containing x.

    variant='dyadic' uses the anchored dyadic cube lattice only;
    variant='centered' uses cubes centered at x with every odd lattice
    width w = 2k+1 < n, besides the point itself and the whole torus.  Per
    width and axis, the mean sums the first window (x-k..x+k, wrapped) left
    to right from 0.0, adds one (entering - leaving) difference per step,
    and divides each running sum by w; a 2-D grid filters axis 0, then
    axis 1.  This is scipy.ndimage.uniform_filter's arithmetic in
    mode='wrap'.  A 1-D grid takes every width at once, a 2-D grid at most
    _BOX_CHUNK_POINTS / n^2 widths at a time, and the running sums are
    held _BOX_BLOCK_POINTS at a time.  This is the stack kernel _hl_lines
    on one line.
    """
    return GridFunction.from_samples(f.grid, _hl_lines(np.abs(f.samples)[None], variant, t)[0])


_SCAN_FIRST_BLOCK = 8  # shifts in the first block of the Peetre scan; later blocks double
_SCAN_BLOCK_POINTS = 2**16  # cap on the samples one block gathers, over all its lines


def _peetre_lines(a: np.ndarray, grid: Grid, params: PeetreParams) -> np.ndarray:
    """sup_y a(x+y) / (1 + r |y|)^sigma for each line of a stack a = |f|, shape (lines, *grid.shape).

    Shifts are visited in decreasing weight order, in blocks of 8, 16, ...
    shifts, each block gathering at most 2^16 samples over the lines it
    scans.  A block is gathered from sliding windows over each line's
    periodically tiled samples, weighted and folded in with one max.  A
    line leaves the scan before the first block whose leading weight w
    satisfies w * max|f| <= min of its running sup: then every product
    w' * |f(x+y)| still to come is at most that bound, because the weights
    are sorted and rounding is monotone.  A shift visited past the point
    where a shift-by-shift scan would stop therefore changes nothing, every
    product is the same float64 product, and max is exact, so each line
    equals the shift-by-shift scan to the bit, whatever the blocks are.
    """
    dim = grid.dim
    dist = _periodic_shift_distance(grid)
    weights = (1.0 + params.r * dist) ** (-params.sigma)
    flat = weights.reshape(-1)
    order = np.argsort(flat)[::-1]
    sorted_weights = flat[order]
    shifts = np.unravel_index(order, grid.shape)
    spatial = tuple(range(1, dim + 1))
    out = np.zeros(a.shape)
    live = np.arange(len(a))  # rows of out still scanned; acc, amax and tiled hold those rows only
    acc, amax = out.copy(), a.max(axis=spatial)
    tiled = np.pad(a, [(0, 0)] + [(0, grid.n - 1)] * dim, mode="wrap")  # each line's (2n-1)^d periodic tiling
    # windows[l, s] == np.roll(a[live[l]], -s): the tiling viewed n^d at a time
    windows = np.lib.stride_tricks.sliding_window_view(tiled, grid.shape, axis=spatial)
    lo, size = 0, _SCAN_FIRST_BLOCK
    while lo < order.size:
        going = sorted_weights[lo] * amax > acc.min(axis=spatial)
        if not going.all():  # the lines that stop here leave the scan
            out[live[~going]] = acc[~going]
            live, acc, amax, tiled = live[going], acc[going], amax[going], tiled[going]
            if not live.size:
                return out
            windows = np.lib.stride_tricks.sliding_window_view(tiled, grid.shape, axis=spatial)
        size = min(size, max(1, _SCAN_BLOCK_POINTS // acc.size))
        hi = min(lo + size, order.size)
        block = windows[(slice(None),) + tuple(s[lo:hi] for s in shifts)]
        block *= sorted_weights[lo:hi].reshape((-1,) + (1,) * dim)
        np.maximum(acc, block.max(axis=1), out=acc)
        lo, size = hi, 2 * size
    out[live] = acc
    return out


def peetre_maximal(f: GridFunction, params: PeetreParams) -> GridFunction:
    """sup_y |f(x+y)| / (1 + r |y|)^sigma over the periodic sample lattice.

    This is the stack kernel _peetre_lines on one line; its docstring says
    why the blocked, early-stopping scan equals a scan over every shift to
    the bit.
    """
    return GridFunction.from_samples(f.grid, _peetre_lines(np.abs(f.samples)[None], f.grid, params)[0])


def _sharp_lines(s: np.ndarray) -> np.ndarray:
    """dyadic_sharp of each line of a stack of samples, shape (lines, *grid shape)."""
    acc = np.zeros(s.shape)
    for mu in range(grid_depth(s.shape[-1]) + 1):
        dev = np.abs(cube_blocks(s, mu, s.ndim - 1) - _cube_means(s, mu))  # |f - f_Q| on each cube Q
        _fold_cubes(acc, mu, _cube_means(dev.reshape(s.shape), mu))
    return acc


def dyadic_sharp(f: GridFunction) -> GridFunction:
    """sup over dyadic cubes containing x of the mean oscillation avg_Q |f - f_Q|."""
    return GridFunction.from_samples(f.grid, _sharp_lines(f.samples[None])[0])


def _vector_sharp_lines(bands: np.ndarray, q: float, n: int, k0: int) -> np.ndarray:
    """vector_sharp of each line of a stack of band samples, shape (bands, lines, *grid shape), bands from k0 on."""
    powers = np.abs(bands) ** q
    # tails[m] = sum over bands with index >= k0 + m
    tails = np.concatenate([np.cumsum(powers[::-1], axis=0)[::-1], np.zeros((1,) + powers.shape[1:])])
    kmax = k0 + len(bands)
    acc = np.zeros(powers.shape[1:])
    for mu in range(grid_depth(bands.shape[-1]) + 1):
        start = max(n, mu)
        if start >= kmax:
            continue
        _fold_cubes(acc, mu, _cube_means(tails[max(start - k0, 0)], mu))
    return acc ** (1.0 / q)


def vector_sharp(gs, q: float, n: int, k0: int | None = None) -> GridFunction:
    """Cube-tail maximal function of a band family.

    For bands g_k (k = k0, k0+1, ...) returns, at each x, the sup over
    dyadic cubes P containing x of

        ( avg_P sum_{k >= max(n, -log2 l(P))} |g_k|^q )^(1/q).
    """
    gs = list(gs)
    if not gs:
        raise ValueError("empty band sequence")
    if q <= 0:
        raise ValueError("q must be positive")
    if k0 is None:
        k0 = n
    grid = gs[0].grid
    if grid.period != 1.0:
        raise ValueError("dyadic cube scales require a unit torus")
    bands = np.stack([g.samples for g in gs])[:, None]
    return GridFunction.from_samples(grid, _vector_sharp_lines(bands, q, n, k0)[0])


# ---------------------------------------------------------------------------
# input generation for audits
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _ball_lattice(radius: float, dim: int) -> np.ndarray:
    """Integer frequency points with |xi| <= radius, in a fixed order; kept for the last 64 (radius, dim), read-only."""
    r = int(np.floor(radius))
    box = np.indices((2 * r + 1,) * dim) - r  # box[i] is the i-th coordinate on {-r..r}^d
    # np.hypot folded over the axes: |xi| in 1-D, and in 2-D np.hypot's own bits, which a root of a sum of squares misses
    keep = reduce(np.hypot, np.abs(box)).ravel() <= radius
    pts = box.reshape(dim, -1).T[keep]
    pts.flags.writeable = False
    return pts


def _band_spectrum(grid: Grid, radius: float, rng=None, kind: str = "random", anchor=None) -> np.ndarray:
    """The spectrum of band_limited_function(grid, radius, rng, kind, anchor)."""
    if radius >= grid.nyquist:
        raise ValueError(f"radius {radius} exceeds grid Nyquist {grid.nyquist}")
    pts = _ball_lattice(radius, grid.dim)
    if kind == "random":
        coeffs = rng.standard_normal(len(pts)) + 1j * rng.standard_normal(len(pts))
    elif kind == "spike":
        coeffs = np.ones(len(pts), dtype=complex)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if anchor is not None:
        coeffs = coeffs * np.exp(-2j * np.pi * (pts @ np.atleast_1d(anchor)))
    spec = np.zeros(grid.shape, dtype=complex)
    idx = tuple(pts[:, i] % grid.n for i in range(grid.dim))
    spec[idx] = coeffs
    return spec


def band_limited_function(grid: Grid, radius: float, rng=None, kind: str = "random", anchor=None) -> GridFunction:
    """An element of the class with spectrum supported in {|xi| <= radius}.

    kind='random' draws iid complex gaussian coefficients; kind='spike' sets
    all coefficients to 1 (a concentrated reproducing kernel), optionally
    translated to ``anchor`` (a lattice point in [0,1)^d).  The coefficient
    draw depends only on (rng state, radius), not on the grid size, so the
    same seed realizes the same function on refined grids.
    """
    return GridFunction.from_spectrum(grid, _band_spectrum(grid, radius, rng, kind, anchor))


def _safe_ratio_max(num: np.ndarray, den: np.ndarray) -> float:
    mask = den > 1e-300
    return float((num[mask] / den[mask]).max())


# ---------------------------------------------------------------------------
# audits: each draws a sweep point's trials as one stack and runs each kernel once on it
# ---------------------------------------------------------------------------


def _check_top_band(k: int, d: int, ns) -> None:
    """Raise before any work unless band k (spectrum in |xi| <= 2^(k+1)) is below every grid's Nyquist frequency."""
    for n in ns:
        if 2.0 ** (k + 1) >= Grid(d, n).nyquist:
            raise ValueError(f"band {k} needs a finer grid than n={n}")


def _per_grid_audit(name, params, d, ns, ratios, tol, details) -> AuditReport:
    """Best of the per-trial ratios(grid) per grid size n, judged by the drift of those maxima under grid doubling.

    Passed means a drift of at most tol; an infinite maximum makes the drift
    inf or nan, which fails.
    """
    per_n = [_best(ratios(Grid(d, n))) for n in ns]
    drift = _drift(per_n)
    return AuditReport(
        name=name,
        params=params,
        constant=max(per_n),
        table=[{"n": n, "constant": c} for n, c in zip(ns, per_n)],
        passed=drift <= tol,
        tolerance=tol,
        details={"doubling_drift": drift, **details},
    )


def _doubling_audit(name, params, d, ns, xs, key, ratios, details) -> AuditReport:
    """Best of the per-trial ratios(grid, x) per grid size n and sweep point x, judged for stability.

    Stable means a log2-slope in x of at most _SLOPE_TOL at every n and a
    drift of the per-n maxima under grid doubling of at most _DRIFT_TOL.
    """
    rows = []
    per_n = {}
    for n in ns:
        grid = Grid(d, n)
        per_n[n] = [_best(ratios(grid, x)) for x in xs]
        rows += [{"n": n, key: x, "constant": c} for x, c in zip(xs, per_n[n])]
    slopes = {n: _fit_slope(xs, c) for n, c in per_n.items()}
    drift = _drift([max(c) for c in per_n.values()])
    return AuditReport(
        name=name,
        params=params,
        constant=max(max(c) for c in per_n.values()),
        table=rows,
        passed=all(s <= _SLOPE_TOL for s in slopes.values()) and drift <= _DRIFT_TOL,
        tolerance=_SLOPE_TOL,
        details={"slope_per_n": {str(n): s for n, s in slopes.items()}, "doubling_drift": drift, **details},
    )


def audit_peetre_domination(
    bands: int = 3,
    trials: int = 20,
    sigmas=(1.5,),
    t: float = 1.0,
    d: int = 1,
    ns=(256, 512),
    seed: int = 0,
) -> list[AuditReport]:
    """Measure sup_x of the weighted-sup operator against the t-maximal one, one report per sigma.

    For each band k the inputs have spectrum in {|xi| <= 2^(k+1)} and the
    weighted sup uses decay scale r = 2^k.  The recorded constant should be
    stable in k and under grid doubling iff sigma >= d/t; below that
    threshold the spike input (trial 0) makes it grow like 2^(k (d/t - sigma)).
    """
    if t <= 0 or any(sigma <= 0 for sigma in sigmas):
        raise ValueError("sigma and t must be positive")
    ks = list(range(3, 3 + bands))
    _check_top_band(ks[-1], d, ns)

    @cache
    def draw(grid):  # [band index, trial]: |u| and its centered t-maximal function, one kernel call for every band
        kinds = ["spike"] + ["random"] * (trials - 1)
        spectra = [
            _band_spectrum(grid, 2.0 ** (k + 1), np.random.default_rng([seed, k, trial]), kind)
            for k in ks
            for trial, kind in enumerate(kinds)
        ]
        a = np.abs(inverse_lines(grid, np.stack(spectra)))
        return a.reshape((len(ks), trials) + grid.shape), _hl_lines(a, "centered", t).reshape((len(ks), trials) + grid.shape)

    def report(sigma):
        def ratios(grid, k):
            a, den = (x[ks.index(k)] for x in draw(grid))
            return list(map(_safe_ratio_max, _peetre_lines(a, grid, PeetreParams(sigma, 2.0**k)), den))

        params = {"bands": bands, "trials": trials, "sigma": sigma, "t": t, "d": d, "ns": list(ns), "seed": seed}
        details = {"sigma_critical": d / t, "outside_hypothesis": sigma < d / t}
        return _doubling_audit("peetre-domination", params, d, ns, ks, "band", ratios, details)

    return [report(sigma) for sigma in sigmas]


def _band(grid: Grid, k: int, seed: int, trial: int) -> np.ndarray:
    """The spectrum of one band u_k in E(2^k), with n-independent coefficients and a kind cycling with the trial.

    Trial -1 is the cube-tail witness: a single spike a few cells right of x = 1/2.
    """
    if trial < 0:
        anchor = np.full(grid.dim, 0.5 + 3.0 / grid.n)
        return _band_spectrum(grid, 2.0 ** (k + 1), None, kind="spike", anchor=anchor)
    kind = ("spikes-aligned", "random", "spikes-staggered")[trial % 3]
    rng = np.random.default_rng([seed, k, trial])
    if kind == "random":
        return _band_spectrum(grid, 2.0 ** (k + 1), rng, kind="random")
    anchor = np.full(grid.dim, (trial % 7) / 7.0 + k / 37.0) if kind == "spikes-staggered" else None
    return _band_spectrum(grid, 2.0 ** (k + 1), rng, kind="spike", anchor=anchor)


def _band_lines(grid: Grid, k: int, seed: int, trials) -> np.ndarray:
    """Samples of _band(grid, k, seed, trial) for each trial, one line each, by one inverse FFT."""
    return inverse_lines(grid, np.stack([_band(grid, k, seed, trial) for trial in trials]))


def _band_stacks(seed: int, sigma: float, q: float):
    """stacks(grid, ks, trials) = (sum_k |u_k|^q, sum_k (M_sigma,2^k u_k)^q), one line per trial, over u_k = _band(grid, k, seed, trial).

    Both sums run from zeros over ascending k in ks.  Each (grid, k, trials)
    pair of power stacks is computed once for the life of the returned
    function, which one audit call holds.
    """

    @cache
    def powers(grid, k, trials):
        a = np.abs(_band_lines(grid, k, seed, trials))
        return a**q, _peetre_lines(a, grid, PeetreParams(sigma, 2.0**k)) ** q

    def stacks(grid, ks, trials):
        plain, maxed = np.zeros((len(trials),) + grid.shape), np.zeros((len(trials),) + grid.shape)
        for k in ks:
            a, m = powers(grid, k, trials)
            plain += a
            maxed += m
        return plain, maxed

    return stacks


def audit_fs_vector_inequality(
    p: float = 2.0,
    q: float = 2.0,
    sigma: float = 2.0,
    J_list=(3, 4, 5),
    trials: int = 10,
    d: int = 1,
    ns=(256, 512),
    seed: int = 0,
) -> AuditReport:
    """Vector-valued maximal inequality: L^p norm of the l^q stack.

    Measures C = ||( sum_k M_sigma,2^k u_k ^q )^(1/q)||_p / ||( sum |u_k|^q )^(1/q)||_p
    over families with u_k in E(2^k), k = 1..J.  Stable in J and under grid
    doubling iff sigma > max(d/p, d/q).
    """
    _check_top_band(max(J_list), d, ns)
    stacks = _band_stacks(seed, sigma, q)

    def ratios(grid, J):
        plain, maxed = stacks(grid, range(1, J + 1), tuple(range(trials)))
        nums, dens = lp_norms(grid, maxed ** (1 / q), p), lp_norms(grid, plain ** (1 / q), p)
        return [num / den if den > 0 else None for num, den in zip(nums, dens)]

    sigma_crit = max(d / p, d / q)
    params = {"p": p, "q": q, "sigma": sigma, "J_list": list(J_list), "trials": trials, "d": d, "ns": list(ns), "seed": seed}
    details = {"sigma_critical": sigma_crit, "outside_hypothesis": sigma <= sigma_crit}
    return _doubling_audit("vector-maximal-inequality", params, d, ns, J_list, "J", ratios, details)


def audit_infty_maximal(
    q: float = 2.0,
    sigma: float = 1.0,
    J_list=(3, 4, 5),
    trials: int = 6,
    d: int = 1,
    n: int = 256,
    seed: int = 0,
) -> AuditReport:
    """Cube-averaged tail inequality, uniform over scales mu and cubes P.

    For each top band J, each mu <= J-1 and each dyadic P of side 2^-mu,
    compares the tail q-average of the weighted-sup family on P against the
    sup over all R in the same scale of the plain tail q-average.  Besides
    random and spike families, a single top-band spike placed just off a
    cube boundary is always included: its cube-adjacent tail is the witness
    that makes the constant grow like 2^(J (d/q - sigma)) once sigma drops
    below d/q.  Pass rule: fitted growth of the constant in J <= 0.15.
    """
    _check_top_band(max(J_list), d, (n,))
    grid = Grid(d, n)
    stacks = _band_stacks(seed, sigma, q)

    def ratios(plain, maxed, mu):
        tops = [_cube_means(s, mu).reshape(len(s), -1).max(axis=1) for s in (plain, maxed)]
        rhs = [float(x ** (1 / q)) for x in tops[0]]
        return [float(x ** (1 / q)) / r if r > 0 else None for x, r in zip(tops[1], rhs)]

    rows = []
    consts_per_J = []
    for J in J_list:
        mus = range(min(J - 1, grid_depth(n)) + 1)
        witness = stacks(grid, [J], (-1,))  # zero below its top band, so that band alone
        worst = [_best(ratios(*witness, mu) + ratios(*stacks(grid, range(mu, J + 1), tuple(range(trials))), mu)) for mu in mus]
        rows += [{"J": J, "mu": mu, "constant": c} for mu, c in zip(mus, worst)]
        consts_per_J.append(max([0.0] + worst))
    slope = _fit_slope(J_list, consts_per_J)
    passed = slope <= _SLOPE_TOL
    return AuditReport(
        name="cube-tail-maximal-inequality",
        params={"q": q, "sigma": sigma, "J_list": list(J_list), "trials": trials, "d": d, "n": n, "seed": seed},
        constant=max(consts_per_J),
        table=rows,
        passed=passed,
        tolerance=_SLOPE_TOL,
        details={
            "J_slope": slope,
            "constant_per_J": consts_per_J,
            "sigma_critical": d / q,
            "outside_hypothesis": sigma <= d / q,
        },
    )


def audit_sharp_domination(
    q: float = 2.0,
    sigma: float | None = None,
    J: int = 5,
    n_cut: int = 1,
    trials: int = 10,
    d: int = 1,
    ns=(256, 512),
    seed: int = 0,
) -> AuditReport:
    """Pointwise domination of the cube-tail maximal of a weighted-sup family.

    Measures sup_x N({M_sigma,2^k g_k})(x) / N({g_k})(x) for band families
    g_k in E(2^k); finite for sigma > 2d/q with a constant depending only on
    (sigma, q), which the report records per grid size.
    """
    if sigma is None:
        sigma = 2 * d / q + 1.0
    _check_top_band(J, d, ns)
    ks = range(1, J + 1)

    def ratios(grid):
        fam = np.stack([_band_lines(grid, k, seed, range(trials)) for k in ks])
        majorized = np.stack([_peetre_lines(np.abs(u), grid, PeetreParams(sigma, 2.0**k)) for k, u in zip(ks, fam)])
        num = _vector_sharp_lines(majorized, q, n_cut, 1)
        return list(map(_safe_ratio_max, num, _vector_sharp_lines(fam, q, n_cut, 1)))

    params = {"q": q, "sigma": sigma, "J": J, "n_cut": n_cut, "trials": trials, "d": d, "ns": list(ns), "seed": seed}
    details = {"sigma_critical": 2 * d / q, "outside_hypothesis": sigma <= 2 * d / q}
    return _per_grid_audit("sharp-tail-domination", params, d, ns, ratios, 0.25, details)


def audit_fefferman_stein(
    ps=(2.0,),
    trials: int = 50,
    d: int = 1,
    ns=(128, 256),
    seed: int = 0,
    band_radius: float = 24.0,
) -> list[AuditReport]:
    """Dyadic maximal vs dyadic sharp maximal in L^p, on mean-zero inputs, one report per p.

    On the torus the unit cube is the largest dyadic cube, so the global
    mean must vanish for the sharp function to control the maximal one; the
    inputs are band-limited with zero mean and identical across grid sizes,
    making the doubling comparison tight.
    """
    if any(p <= 1 for p in ps):
        raise ValueError("p must be > 1")

    @cache
    def maximals(grid):
        spectra = np.stack([_band_spectrum(grid, band_radius, np.random.default_rng([seed, trial])) for trial in range(trials)])
        spectra[(slice(None),) + (0,) * d] = 0.0  # mean zero
        f = inverse_lines(grid, spectra)
        return _hl_lines(np.abs(f), "dyadic", 1.0), _sharp_lines(f)

    def report(p):
        def ratios(grid):
            m, sharp = maximals(grid)
            return [num / den if den > 0 else None for num, den in zip(lp_norms(grid, m, p), lp_norms(grid, sharp, p))]

        params = {"p": p, "trials": trials, "d": d, "ns": list(ns), "seed": seed, "band_radius": band_radius}
        return _per_grid_audit("fefferman-stein-dyadic-sharp", params, d, ns, ratios, _DRIFT_TOL, {})

    return [report(p) for p in ps]
