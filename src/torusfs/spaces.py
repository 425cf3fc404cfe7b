"""Besov / Triebel-Lizorkin norms, the frame transform, and atoms.

The function-space norms combine weighted band projections in the two
possible orders (l^q of L^p norms, or L^p of the pointwise l^q stack); the
p = infinity Triebel-Lizorkin scale is handled by the dyadic-cube tail
definition.  The frame transform maps functions to coefficients indexed by
dyadic cubes and back; its windows are tight (analysis = synthesis) and
sit inside the Nyquist range of each cube lattice, which makes
synthesize(analyze(f)) exact for band-limited f instead of approximate.  The
norm-equivalence audit analyzes each input once per call, for every triple.

Coefficient-side machinery: the sequence-space norm ||g^{s,q}(b)||_p, the
bounded-block atoms for p <= 1, and a stopping-cube atomic decomposition.
A coefficient field is a list of dense per-scale arrays, and the norm, the
transform and the decomposition all work on those arrays level by level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .dyadic import DyadicCube, block_reduce, expand_blocks, grid_depth
from .grid import Grid, GridFunction, upsample
from .littlewood_paley import LPPartition, band_project, radial_table, scatter
from .maximal import band_limited_function, vector_sharp
from .report import AuditReport, _drift

__all__ = [
    "SpaceParams",
    "CoeffField",
    "PhiTransformFamily",
    "AtomicDecomposition",
    "besov_norm",
    "triebel_norm",
    "triebel_infty_norm",
    "sequence_norm",
    "build_phi_family",
    "phi_analyze",
    "phi_synthesize",
    "norm_equivalence_audit",
    "is_infty_atom",
    "atomic_decompose",
    "triebel_sharp_norm",
]


@dataclass(frozen=True)
class SpaceParams:
    """Smoothness s, integrability p, fine index q, and the family tag."""

    s: float
    p: float
    q: float
    family: str = "triebel"

    def __post_init__(self):
        if not (0 < self.p):
            raise ValueError(f"p must be in (0, inf], got {self.p}")
        if not (0 < self.q):
            raise ValueError(f"q must be in (0, inf], got {self.q}")
        if self.family not in ("besov", "triebel"):
            raise ValueError(f"family must be 'besov' or 'triebel', got {self.family!r}")


def _lq(values: np.ndarray, q: float, axis=0) -> np.ndarray:
    if np.isinf(q):
        return np.max(values, axis=axis)
    return np.sum(values**q, axis=axis) ** (1.0 / q)


def _check_resolution(f: GridFunction, partition: LPPartition):
    if 2.0 ** (partition.J + 1) > f.grid.nyquist:
        raise ValueError(
            f"grid (Nyquist {f.grid.nyquist}) does not resolve partition band {partition.J}"
        )


def _band_stack(f: GridFunction, partition: LPPartition) -> np.ndarray:
    """|Lambda_k f| for k = 0..J, stacked along axis 0."""
    return np.stack([np.abs(band_project(f, partition, k).samples) for k in range(partition.J + 1)])


def besov_norm(f: GridFunction, partition: LPPartition, sp: SpaceParams, oversample: int = 1) -> float:
    """l^q over bands of 2^{sk} ||Lambda_k f||_{L^p}."""
    if sp.family != "besov":
        raise ValueError("SpaceParams.family must be 'besov'")
    _check_resolution(f, partition)
    norms = np.array(
        [band_project(f, partition, k).lp_norm(sp.p, oversample) for k in range(partition.J + 1)]
    )
    weights = 2.0 ** (sp.s * np.arange(partition.J + 1))
    return float(_lq(weights * norms, sp.q))


def triebel_norm(f: GridFunction, partition: LPPartition, sp: SpaceParams, oversample: int = 1) -> float:
    """L^p norm of the pointwise l^q stack of 2^{sk} |Lambda_k f|; p < inf."""
    if sp.family != "triebel":
        raise ValueError("SpaceParams.family must be 'triebel'")
    if np.isinf(sp.p):
        raise ValueError("p = inf is defined through the dyadic-cube tail norm; use triebel_infty_norm")
    _check_resolution(f, partition)
    if oversample > 1:
        f = upsample(f, oversample)
    stack = _band_stack(f, partition)
    weights = 2.0 ** (sp.s * np.arange(partition.J + 1)).reshape((-1,) + (1,) * f.grid.dim)
    combined = _lq(weights * stack, sp.q, axis=0)
    return GridFunction.from_samples(f.grid, combined).lp_norm(sp.p)


def triebel_infty_norm(f: GridFunction, partition: LPPartition, s: float, q: float) -> float:
    """||Lambda_0 f||_inf plus the sup over dyadic cubes of tail q-averages.

    The sup runs over cubes P with side < 1; the band sum starts at
    k = -log2 l(P) and is truncated at the partition top (exact for inputs
    band-limited within the partition range).
    """
    if np.isinf(q):
        raise ValueError("q must be finite here")
    if f.grid.period != 1.0:
        raise ValueError("dyadic cube scales require a unit torus")
    _check_resolution(f, partition)
    n = f.grid.n
    J = partition.J
    base = float(np.abs(band_project(f, partition, 0).samples).max())
    powers = [2.0 ** (s * k * q) * np.abs(band_project(f, partition, k).samples) ** q for k in range(1, J + 1)]
    best = 0.0
    tail = np.zeros(f.grid.shape)
    for mu in range(min(J, grid_depth(n)), 0, -1):
        tail = tail + powers[mu - 1]  # bands mu..J accumulated from the top
        best = max(best, float(block_reduce(tail, mu).max()) ** (1.0 / q))
    return base + best


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


def _zero_levels(dim: int, depth: int) -> list:
    return [np.zeros((2**k,) * dim, dtype=complex) for k in range(depth + 1)]


class CoeffField:
    """Complex coefficients indexed by dyadic cubes of side <= 1.

    Stored densely, one complex array per scale: ``levels[k]`` has shape
    ``(2^k,)*dim`` and holds the coefficient of the scale-k cube at each
    offset, for k = 0..max_depth.  With no levels the field is a single
    zero level 0.  ``len`` counts the nonzero coefficients.
    """

    def __init__(self, dim: int, levels: list | None = None):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        self.dim = dim
        self.levels = levels or _zero_levels(dim, 0)
        for k, level in enumerate(self.levels):
            if level.shape != (2**k,) * dim:
                raise ValueError(f"level {k} has shape {level.shape}, not {(2**k,) * dim}")

    def __len__(self):
        return sum(int(np.count_nonzero(level)) for level in self.levels)

    @property
    def max_depth(self) -> int:
        return len(self.levels) - 1

    def scaled(self, c: complex) -> "CoeffField":
        return CoeffField(self.dim, [c * level for level in self.levels])

    def g_field(self, sp: SpaceParams) -> np.ndarray:
        """g^{s,q} evaluated on the finest cell lattice (exact; the function
        is piecewise constant on cells of side 2^-max_depth)."""
        n = 2**self.max_depth
        q = sp.q
        acc = np.zeros((n,) * self.dim)
        for k, level in enumerate(self.levels):
            w = 2.0 ** (k * (sp.s + self.dim / 2.0)) * np.abs(level)
            if np.isinf(q):
                np.maximum(acc, expand_blocks(w, n), out=acc)
            else:
                acc += expand_blocks(w**q, n)
        return acc if np.isinf(q) else acc ** (1.0 / q)


def sequence_norm(b: CoeffField, sp: SpaceParams) -> float:
    """L^p norm of g^{s,q}(b); exact piecewise-constant quadrature."""
    g = b.g_field(sp)
    if np.isinf(sp.p):
        return float(g.max())
    cell = 2.0 ** (-b.max_depth * b.dim)
    return float((np.sum(g**sp.p) * cell) ** (1.0 / sp.p))


# ---------------------------------------------------------------------------
# frame transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiTransformFamily:
    """Tight window family for the cube-indexed frame transform.

    The mother analysis/synthesis window is the dyadic annulus profile
    renormalized by the square-root of its squared dilation sum, shifted
    down ``band_shift`` octaves so the scale-k window is supported in
    {2^(k-3) <= |xi| <= 2^(k-1)} -- strictly inside the Nyquist range of the
    scale-k cube lattice.  This keeps the frame identity

        theta0(xi)^2 + sum_k theta(xi / 2^k)^2 = 1

    exact on the covered range and makes analysis sampling alias-free, at
    the price of re-anchoring the window annuli two octaves below the raw
    band annuli (recorded in ``support_annulus``/``coverage_annulus``).
    Analysis and synthesis windows coincide (a tight frame).
    """

    lp: LPPartition
    band_shift: int = 2
    _c: float = field(default=0.0, compare=False)

    def __post_init__(self):
        lo, hi = self.coverage_annulus
        r = np.linspace(lo, hi, 4001)
        c_ann = float(np.min(self.theta(r)))
        c_base = float(np.min(self.theta0(np.linspace(0.0, hi, 4001))))
        object.__setattr__(self, "_c", min(c_ann, c_base))

    @property
    def scale(self) -> float:
        """Dilation applied to the raw annulus {1/2 <= |xi| <= 2}."""
        return 2.0**-self.band_shift

    @property
    def support_annulus(self) -> tuple:
        return (0.5 * self.scale, 2.0 * self.scale)

    @property
    def coverage_annulus(self) -> tuple:
        """Annulus on which the mother window is bounded below by c."""
        return (0.75 * self.scale, 5.0 / 3.0 * self.scale)

    @property
    def c(self) -> float:
        """Lower bound of |window| on its coverage region."""
        return self._c

    def _raw(self, r):
        return self.lp.mother(np.asarray(r, dtype=float) / self.scale)

    def _dilation_sum(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        pos = r > 0
        if np.any(pos):
            rp = r[pos]
            jlo = int(np.floor(np.log2(rp.min() / (2.0 * self.scale))))
            jhi = int(np.ceil(np.log2(rp.max() / (0.5 * self.scale)))) + 1
            acc = np.zeros(rp.shape)
            for j in range(jlo, jhi + 1):
                acc += self._raw(rp / 2.0**j) ** 2
            out[pos] = acc
        return out

    def theta(self, r):
        """Mother window, supported in ``support_annulus``."""
        r = np.asarray(r, dtype=float)
        m = self._raw(r)
        s = self._dilation_sum(r)
        return np.divide(m, np.sqrt(s), out=np.zeros(np.broadcast(m, s).shape), where=m > 0)

    def theta0(self, r):
        """Base window: 1 near zero, supported in {|xi| <= 2 * scale}."""
        r = np.asarray(r, dtype=float)
        tail = np.zeros(r.shape)
        rmax = float(r.max()) if r.size else 0.0
        if rmax > 0:
            jhi = int(np.ceil(np.log2(max(rmax / (0.5 * self.scale), 1.0)))) + 1
            for j in range(1, jhi + 1):
                tail += self.theta(r / 2.0**j) ** 2
        out = np.sqrt(np.clip(1.0 - tail, 0.0, None))
        # the square root turns O(eps) cancellation into O(sqrt(eps)) noise
        # outside the true support, where the window vanishes identically
        out[r > 2.0 * self.scale] = 0.0
        return out

    def window(self, k: int, r):
        if k == 0:
            return self.theta0(r)
        return self.theta(np.asarray(r, dtype=float) / 2.0**k)

    def table(self, grid: Grid, k: int) -> tuple:
        """Radial table of the scale-k window on the grid's lattice."""
        # theta0 reaches up to 2 * scale inclusive, so its open bound lies past it
        lo, hi = (-1.0, 4.0 * self.scale) if k == 0 else (2.0**k * a for a in self.support_annulus)
        key = ("frame", self.lp.smoothness, self.band_shift, k)
        return radial_table(grid, key, lambda r: self.window(k, r), lo, hi)

    def coverage_radius(self, max_depth: int) -> float:
        """Largest |xi| at which the depth-truncated frame identity is exact."""
        return 2.0**max_depth * self.scale


def build_phi_family(smoothness: int = 1, band_shift: int = 2) -> PhiTransformFamily:
    return PhiTransformFamily(lp=LPPartition(J=3, smoothness=smoothness), band_shift=band_shift)


def _fold_spectrum(spec: np.ndarray, m: int) -> np.ndarray:
    """Alias-fold an FFT-ordered spectrum onto an m-point lattice per axis."""
    n = spec.shape[0]
    for axis in range(spec.ndim):
        spec = spec.reshape(spec.shape[:axis] + (n // m, m) + spec.shape[axis + 1 :]).sum(axis=axis)
    return spec


def phi_analyze(f: GridFunction, fam: PhiTransformFamily, max_depth: int) -> CoeffField:
    """Frame coefficients v_Q = <f, window^Q> for all cubes down to max_depth.

    The scale-k coefficient lattice is the set of lower corners of the
    scale-k dyadic cubes; the windowed correlation is sampled there by an
    exact alias-folded inverse FFT (the windows sit inside the cube-lattice
    Nyquist range, so folding is lossless).
    """
    grid = f.grid
    if grid.period != 1.0:
        raise ValueError("frame transform requires a unit torus")
    if 2**max_depth > grid.n:
        raise ValueError(f"max_depth {max_depth} exceeds grid depth {grid_depth(grid.n)}")
    levels = []
    for k in range(max_depth + 1):
        corr = f.spectrum * scatter(grid, fam.table(grid, k))
        m = 2**k
        vals = np.fft.ifftn(_fold_spectrum(corr, m)) * m**grid.dim
        levels.append(vals * 2.0 ** (-k * grid.dim / 2.0))
    return CoeffField(grid.dim, levels)


def phi_synthesize(v: CoeffField, fam: PhiTransformFamily, grid: Grid) -> GridFunction:
    """f = sum_Q v_Q window^Q, assembled spectrally scale by scale."""
    if grid.period != 1.0:
        raise ValueError("frame transform requires a unit torus")
    spec = np.zeros(grid.shape, dtype=complex)
    for k, lattice in enumerate(v.levels):
        if not lattice.any():
            continue
        m = 2**k
        if m > grid.n:
            raise ValueError(f"scale {k} not representable on n={grid.n}")
        phases = np.fft.fftn(lattice) * 2.0 ** (-k * grid.dim / 2.0)
        tiled = np.tile(phases, (grid.n // m,) * grid.dim)
        spec += tiled * scatter(grid, fam.table(grid, k))
    return GridFunction.from_spectrum(grid, spec)


def norm_equivalence_audit(
    trials: int,
    sps,
    max_depth: int = 6,
    ns=(128, 256),
    seed: int = 0,
    fam: PhiTransformFamily | None = None,
) -> list[AuditReport]:
    """Coefficient norm vs function norm over random band-limited inputs, one report per SpaceParams.

    Records the interval of ratios ||analyze(f)||_{f} / ||f||_{F} and the
    two-sided constant C = max(ratio_max, 1/ratio_min); pass requires C to
    move by at most 15% under grid doubling.
    """
    if any(np.isinf(sp.p) for sp in sps):
        raise ValueError("p < inf required")
    fam = fam or build_phi_family()
    radius = 0.9 * fam.coverage_radius(max_depth)
    partition = LPPartition(J=max(3, max_depth - 1))

    @cache
    def draw(grid, trial):
        f = band_limited_function(grid, radius, np.random.default_rng([seed, trial]), kind="random")
        return f, phi_analyze(f, fam, max_depth)

    def report(sp):
        rows = []
        for n in ns:
            grid = Grid(1, n)
            lo, hi = np.inf, 0.0
            for trial in range(trials):
                f, coeffs = draw(grid, trial)
                fn = triebel_norm(f, partition, sp) if sp.family == "triebel" else besov_norm(f, partition, sp)
                if fn == 0:
                    continue
                ratio = sequence_norm(coeffs, sp) / fn
                lo, hi = min(lo, ratio), max(hi, ratio)
            rows.append({"n": n, "ratio_min": lo, "ratio_max": hi, "C": max(hi, 1.0 / lo)})
        cs = [row["C"] for row in rows]
        drift = _drift(cs)
        return AuditReport(
            name="frame-norm-equivalence",
            params={"trials": trials, "s": sp.s, "p": sp.p, "q": sp.q, "family": sp.family, "max_depth": max_depth, "ns": list(ns), "seed": seed},
            constant=max(cs),
            table=rows,
            passed=drift <= 0.15,
            tolerance=0.15,
            details={"doubling_drift": drift},
        )

    return [report(sp) for sp in sps]


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


def is_infty_atom(r: CoeffField, Q0: DyadicCube, sp: SpaceParams, rtol: float = 1e-12) -> bool:
    """Support inside Q0 and ||g^{s,q}(r)||_inf <= |Q0|^{-1/p} (p <= 1)."""
    if sp.p > 1:
        raise ValueError("atoms are defined for p <= 1")
    if Q0.dim != r.dim:
        raise ValueError("dimension mismatch")
    for k, level in enumerate(r.levels):
        inside = np.count_nonzero(level[Q0.sample_slices(2**k)]) if k >= Q0.k else 0
        if inside != np.count_nonzero(level):
            return False
    bound = Q0.volume ** (-1.0 / sp.p)
    return float(r.g_field(sp).max()) <= bound * (1.0 + rtol)


@dataclass
class AtomicDecomposition:
    """Scalars lambda_j and atoms r_j with sum_j lambda_j r_j = original."""

    lambdas: list
    atoms: list
    cubes: list

    def reconstruct(self, dim: int) -> CoeffField:
        levels = _zero_levels(dim, max((atom.max_depth for atom in self.atoms), default=0))
        for lam, atom in zip(self.lambdas, self.atoms):
            for k, level in enumerate(atom.levels):
                levels[k] += lam * level
        return CoeffField(dim, levels)

    def scalar_lp(self, p: float) -> float:
        return float(np.sum(np.abs(self.lambdas) ** p) ** (1.0 / p))


def atomic_decompose(b: CoeffField, sp: SpaceParams) -> AtomicDecomposition:
    """Stopping-cube decomposition of a coefficient field into scaled atoms.

    Level sets of g^{s,q}(b) at thresholds 2^j are tiled by maximal dyadic
    cubes; each coefficient is assigned to the highest level whose set
    contains its cube, grouped by stopping cube, and each group is scaled
    to saturate the atom bound.  Reconstruction is exact by construction;
    the l^p control of the scalars is recorded by the caller via
    ``scalar_lp(p) / sequence_norm(b, sp)``.
    """
    if not (0 < sp.p <= 1):
        raise ValueError("atomic decomposition requires 0 < p <= 1")
    if not (sp.p <= sp.q):
        raise ValueError("requires p <= q")
    if len(b) == 0:
        return AtomicDecomposition([], [], [])
    K = b.max_depth
    g = b.g_field(sp)

    # boolean pyramids of {g > 2^j}, built lazily per level
    pyramids: dict = {}

    def stopping_cube(k: int, off: tuple, j: int) -> tuple:
        if j not in pyramids:
            pyr = [g > 2.0**j]
            for mu in range(K, 0, -1):
                pyr.append(block_reduce(pyr[-1], mu - 1, op=np.all))
            pyramids[j] = pyr[::-1]  # index by scale mu = 0..K
        pyr = pyramids[j]
        while k > 0 and pyr[k - 1][tuple(o // 2 for o in off)]:
            k, off = k - 1, tuple(o // 2 for o in off)
        return k, off

    groups: dict = {}
    for k, level in enumerate(b.levels):
        cube_min = block_reduce(g, k, op=np.min)
        for off in map(tuple, np.argwhere(level).tolist()):
            m = float(cube_min[off])
            j = int(np.floor(np.log2(m)))
            if 2.0**j >= m:
                j -= 1
            groups.setdefault((j,) + stopping_cube(k, off, j), []).append((k, off))

    lambdas, atoms, cubes = [], [], []
    for (j, tk, toff), members in sorted(groups.items()):
        piece = CoeffField(b.dim, _zero_levels(b.dim, max(k for k, _ in members)))
        for k, off in members:
            piece.levels[k][off] = b.levels[k][off]
        top = DyadicCube(tk, toff, b.dim)
        lam = float(piece.g_field(sp).max()) * top.volume ** (1.0 / sp.p)
        if lam == 0:
            continue
        lambdas.append(lam)
        atoms.append(piece.scaled(1.0 / lam))
        cubes.append(top)
    return AtomicDecomposition(lambdas, atoms, cubes)


def triebel_sharp_norm(
    f: GridFunction, partition: LPPartition, sp: SpaceParams, n: int
) -> float:
    """Low-band L^p norms plus the L^p norm of the cube-tail maximal stack.

    Equivalent to the direct mixed norm when q < p; outside that range the
    value is still computed but a warning marks the hypothesis violation.
    """
    if not np.isfinite(sp.p):
        raise ValueError("p < inf required")
    if sp.q >= sp.p:
        warnings.warn("triebel_sharp_norm: q >= p is outside the equivalence hypothesis", stacklevel=2)
    _check_resolution(f, partition)
    bands = [band_project(f, partition, k) for k in range(partition.J + 1)]
    head = sum(2.0 ** (sp.s * j) * bands[j].lp_norm(sp.p) for j in range(min(n, partition.J + 1)))
    weighted = [GridFunction.from_samples(f.grid, 2.0 ** (sp.s * k) * bands[k].samples) for k in range(1, partition.J + 1)]
    sharp = vector_sharp(weighted, sp.q, n, k0=1)
    return float(head + GridFunction.from_samples(f.grid, sharp.samples.real).lp_norm(sp.p))
