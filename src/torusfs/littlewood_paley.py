"""Inhomogeneous dyadic resolution of unity and band projections.

The frequency axis is split by a family {base, mother(./2), mother(./4), ...}
of radial windows built from the classical exp(-1/t) cutoff.  The telescoping
construction makes the partition identity exact (up to roundoff) rather than
approximate: the partial sums have the closed form h(r / 2^K).

Every radial window sampled on a frequency lattice, here and in the other
modules, comes from one cache of radial tables (:func:`radial_table`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, GridFunction
from .report import AuditReport

__all__ = [
    "LPPartition",
    "build_partition",
    "band_project",
    "check_partition",
    "export_profiles_csv",
    "radial_table",
    "radial_window",
    "cached",
    "scatter",
    "clear_tables",
]

# (grid, key) -> a radial_table, a radial_window or another cached() entry.
# Nothing is evicted: callers that sweep large grids empty it with clear_tables().
_TABLES: dict = {}


def clear_tables() -> None:
    """Empty the radial table cache."""
    _TABLES.clear()


def _first_above(x: float, step: float, count: int) -> int:
    """Smallest i in 0..count with i * step > x; count if none."""
    i = int(np.clip(np.floor(min(x, count * step) / step), 0, count))
    while i > 0 and (i - 1) * step > x:
        i -= 1
    while i < count and i * step <= x:
        i += 1
    return i


def _profile_1d(grid: Grid, profile, lo: float, hi: float) -> tuple:
    """(a, vals, m, z): the profile at the 1-D lattice radii a, a+1, ... on lo < r < hi.

    The first m radii have a negative twin, except the first when it is 0
    (z = 1); a last radius past those m is the Nyquist radius n/2.  The
    profile is evaluated 2^16 radii at a time, so its temporaries stay
    small beside the values.
    """
    n, half = grid.n, grid.n // 2
    step = 1.0 / (n * (grid.period / n))  # numpy's fftfreq spacing: radii match freq_radii() to the bit
    a, b = _first_above(lo, step, half), _first_above(np.nextafter(hi, -np.inf), step, half)
    radii = np.arange(a, b + (lo < half * step <= hi)) * step  # the Nyquist radius n/2 follows b = n/2
    vals = np.concatenate([profile(radii[s : s + 2**16]) for s in range(0, max(len(radii), 1), 2**16)])
    return a, vals, b - a, int(a == 0)


def _build_table(grid: Grid, profile, lo: float, hi: float) -> tuple:
    if grid.dim == 1:  # kept fast path: an index range, no np.unique over the 2^22-point lattices of criterion 8
        a, vals, m, z = _profile_1d(grid, profile, lo, hi)
        radii = np.arange(a, a + len(vals))
        idx = np.concatenate([radii[:m], grid.n - radii[z:m], radii[m:]])
        return idx, np.concatenate([vals[:m], vals[z:m], vals[m:]])
    r = grid.freq_radii().ravel()
    radii, inv = np.unique(r, return_inverse=True)
    a, b = np.searchsorted(radii, lo, side="right"), np.searchsorted(radii, hi, side="left")
    idx = np.flatnonzero((r > lo) & (r < hi))
    return idx, profile(radii[a:b])[inv[idx] - a]


def radial_table(grid: Grid, key, profile, lo: float, hi: float) -> tuple:
    """(flat FFT-order indices, values) of a radial window on lo < |xi| < hi.

    ``profile`` maps ascending radii to window values, which must vanish
    off the annulus.  It is evaluated once per distinct lattice radius and
    gathered onto the lattice, so the values equal
    ``profile(grid.freq_radii())`` to the bit.  The table is cached under
    (grid, key) until :func:`clear_tables`.  In 1-D the indices run over
    the nonnegative frequencies in ascending order, then their negatives,
    then the Nyquist frequency if lo < |xi| <= hi holds there; sums over a
    table follow this order.  In 2-D the indices ascend.
    """
    return cached(grid, key, _build_table, grid, profile, lo, hi)


def radial_window(grid: Grid, key, profile, lo: float, hi: float) -> np.ndarray:
    """:func:`radial_table` scattered onto the lattice, cached as that array.

    For windows needed at every lattice point; the table itself is not kept,
    and a key names either a table or a window.  In 1-D the values are
    written straight into FFT order, without the table's index array.
    """
    return cached(grid, key, _build_window, grid, profile, lo, hi)


def _build_window(grid: Grid, profile, lo: float, hi: float) -> np.ndarray:
    if grid.dim == 1:
        a, vals, m, z = _profile_1d(grid, profile, lo, hi)
        n = grid.n
        w = np.zeros(n, dtype=vals.dtype)
        w[a : a + len(vals)] = vals
        w[n - a - m + 1 : n - a - z + 1] = vals[z:m][::-1]  # index n - r of the radius r, descending
        return w
    return scatter(grid, _build_table(grid, profile, lo, hi))


def cached(grid: Grid, key, build, *args):
    """The entry cached under (grid, key) until :func:`clear_tables`, made by ``build(*args)`` on a miss.

    An entry is an array or a tuple of arrays, all made read-only; a key
    names one entry, whichever function built it.
    """
    entry = _TABLES.get((grid, key))
    if entry is None:
        entry = _TABLES[(grid, key)] = build(*args)
        for arr in entry if isinstance(entry, tuple) else (entry,):
            arr.flags.writeable = False
    return entry


def scatter(grid: Grid, table: tuple) -> np.ndarray:
    """A table's window on the whole lattice (FFT order), zero off its annulus."""
    idx, vals = table
    out = np.zeros(grid.size, dtype=vals.dtype)
    out[idx] = vals
    return out.reshape(grid.shape)


def smooth_step(t, sharpness: float = 1.0):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly monotone between.

    Built from psi(t) = exp(-sharpness / t); s(1/2) = 1/2 exactly for every
    sharpness, and s vanishes/saturates with all derivatives at 0 and 1.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-sharpness / tm)
    b = np.exp(-sharpness / (1.0 - tm))
    out[mid] = a / (a + b)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class LPPartition:
    """Dyadic resolution of unity {base, profile(1), ..., profile(J)}.

    ``profile(k, r)`` evaluates the k-th Fourier-side window at radius r;
    windows are radial in |xi|.  The k-th window is the single mother profile
    dilated by 2^k, supported in the annulus {2^(k-1) <= |xi| <= 2^(k+1)};
    the base window equals 1 on {|xi| <= 1} and vanishes for |xi| >= 2.

    base + sum_{k=1..J} profile(k) == 1 holds exactly for |xi| <= 2^J.
    """

    J: int
    smoothness: int = 1

    def __post_init__(self):
        if self.J < 3:
            raise ValueError(f"J must be >= 3, got {self.J}")
        if self.smoothness < 1:
            raise ValueError("smoothness must be >= 1")

    # -- radial profiles ---------------------------------------------------

    def cutoff(self, r):
        """Radial cutoff h: 1 on [0, 1], 0 on [2, inf)."""
        return 1.0 - smooth_step(np.asarray(r, dtype=float) - 1.0, self.smoothness)

    def mother(self, r):
        """Mother annulus profile, supported in {1/2 <= r <= 2}."""
        r = np.asarray(r, dtype=float)
        return self.cutoff(r) - self.cutoff(2.0 * r)

    def base(self, r):
        """Low-frequency window (the k = 0 band)."""
        return self.cutoff(r)

    def profile(self, k: int, r):
        """Window of band k at radius r (k = 0 gives the base window)."""
        if not 0 <= k <= self.J:
            raise ValueError(f"band {k} outside partition range 0..{self.J}")
        if k == 0:
            return self.base(r)
        return self.mother(np.asarray(r, dtype=float) / 2.0**k)

    def partial_sum(self, K: int, r):
        """base + sum_{k=1..K} profile(k); equals cutoff(r / 2^K) exactly."""
        return self.cutoff(np.asarray(r, dtype=float) / 2.0**K)

    # -- sampled windows ---------------------------------------------------

    def table(self, grid: Grid, k: int) -> tuple:
        """Radial table of the band-k window on the grid's lattice."""
        if not 0 <= k <= self.J:
            raise ValueError(f"band {k} outside partition range 0..{self.J}")
        lo, hi = (-1.0, 2.0) if k == 0 else (2.0 ** (k - 1), 2.0 ** (k + 1))
        return radial_table(grid, ("band", self.smoothness, k), lambda r: self.profile(k, r), lo, hi)

    def window(self, grid: Grid, k: int) -> np.ndarray:
        """Band-k window sampled on the grid's frequency lattice (FFT order)."""
        return scatter(grid, self.table(grid, k))


def build_partition(J: int, smoothness: int = 1) -> LPPartition:
    """Build a J-band partition; see :class:`LPPartition` for the contract."""
    return LPPartition(J=J, smoothness=smoothness)


def band_project(f: GridFunction, partition: LPPartition, k: int) -> GridFunction:
    """Band projection: multiply the spectrum by window k.

    k = 0 applies the base (low-frequency) window.  Requires k <= J and the
    band annulus inside the grid's Nyquist range.
    """
    if not 0 <= k <= partition.J:
        raise ValueError(f"band {k} exceeds partition range 0..{partition.J}")
    if k > 0 and 2.0 ** (k + 1) > f.grid.nyquist:
        raise ValueError(f"band {k} annulus exceeds grid Nyquist {f.grid.nyquist}")
    return GridFunction.from_spectrum(f.grid, f.spectrum * partition.window(f.grid, k))


def check_partition(partition: LPPartition, samples: int = 100_000, seed: int = 0) -> AuditReport:
    """Sample-based audit of the partition identity and support hygiene.

    Reports the max deviation of base + sum profile(k) from 1 on radii up to
    2^J, and the max leakage of each window outside its nominal annulus.
    """
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    rng = np.random.default_rng(seed)
    J = partition.J
    r = rng.uniform(0.0, 2.0**J, size=samples)
    total = partition.base(r)
    for k in range(1, J + 1):
        total = total + partition.profile(k, r)
    deviation = float(np.max(np.abs(total - 1.0)))

    rows = []
    leakage = 0.0
    for k in range(1, J + 1):
        lo, hi = 2.0 ** (k - 1), 2.0 ** (k + 1)
        r_out = np.concatenate([rng.uniform(0.0, lo, samples // 20), rng.uniform(hi, 2.0 ** (J + 2), samples // 20)])
        leak = float(np.max(np.abs(partition.profile(k, r_out))))
        leakage = max(leakage, leak)
        rows.append({"band": k, "support_lo": lo, "support_hi": hi, "leakage": leak})

    base_at_zero = float(partition.base(0.0))
    passed = deviation < 1e-12 and leakage < 1e-14 and abs(base_at_zero - 1.0) < 1e-15
    return AuditReport(
        name="littlewood-paley-partition",
        params={"J": J, "smoothness": partition.smoothness, "samples": samples, "seed": seed},
        constant=deviation,
        table=rows,
        passed=passed,
        tolerance=1e-12,
        details={"support_leakage": leakage, "base_at_zero": base_at_zero},
    )


def export_profiles_csv(partition: LPPartition, path, num: int = 2048) -> None:
    """Sampled window table (radius, base, band_1..band_J) for plotting."""
    r = np.linspace(0.0, 2.0 ** (partition.J + 1), num)
    cols = [r, partition.base(r)]
    cols += [partition.profile(k, r) for k in range(1, partition.J + 1)]
    header = ",".join(["radius", "base"] + [f"band_{k}" for k in range(1, partition.J + 1)])
    np.savetxt(path, np.column_stack(cols), delimiter=",", header=header, comments="")
