"""Uniform periodic grids and their spectral calculus.

Everything else in the package is built on the two types defined here: a
:class:`Grid` describing a uniform discretization of the torus, and a
:class:`GridFunction` holding complex samples together with a lazily
computed spectrum.

Normalization convention (the "symbol table" of the package):

===========  ==================================================================
quantity     definition
===========  ==================================================================
samples      f(x_j), x_j = j * period / n, j in {0..n-1}^d (row-major)
frequencies  xi = k / period, k in {-n/2, ..., n/2 - 1}^d, stored in FFT order
spectrum     fhat(xi) = sum_j f(x_j) e^{-2 pi i <x_j, xi>} * cellvol
inverse      f(x) = period^{-d} * sum_xi fhat(xi) e^{+2 pi i <x, xi>}
Parseval     sum_j |f(x_j)|^2 * cellvol = period^{-d} * sum_xi |fhat(xi)|^2
convolution  (f * g)^hat = fhat * ghat   (periodic convolution, cell-weighted)
===========  ==================================================================

With period 1 the spectrum entries are exactly the Fourier coefficients of
the periodic trigonometric interpolant, and all identities above are exact
in floating point up to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "make_grid",
    "convolve",
    "inverse_lines",
    "lp_norms",
    "save_gridfunction",
    "load_gridfunction",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the torus [0, period)^dim.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    n : int
        Samples per axis; a power of two, at least 8.
    period : float
        Side length of the torus (default 1.0).
    """

    dim: int
    n: int
    period: float = 1.0

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.n) or self.n < 8:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.period > 0):
            raise ValueError(f"period must be positive, got {self.period}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def cell_volume(self) -> float:
        return (self.period / self.n) ** self.dim

    @property
    def nyquist(self) -> float:
        """Largest per-axis frequency magnitude representable, n/(2*period)."""
        return self.n / (2.0 * self.period)

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates along one axis."""
        return np.arange(self.n) * (self.period / self.n)

    def coords(self) -> tuple:
        """Meshgrid ('ij') of sample coordinates, one array per axis."""
        return tuple(np.meshgrid(*[self.axis_coords()] * self.dim, indexing="ij"))

    def axis_freqs(self) -> np.ndarray:
        """Frequencies along one axis in FFT order."""
        return np.fft.fftfreq(self.n, d=self.period / self.n)

    def freqs(self) -> tuple:
        """Meshgrid ('ij') of frequencies in FFT order, one array per axis."""
        return tuple(np.meshgrid(*[self.axis_freqs()] * self.dim, indexing="ij"))

    def freq_radii(self) -> np.ndarray:
        """|xi| on the frequency lattice, FFT order."""
        if self.dim == 1:
            return np.abs(self.axis_freqs())
        kx, ky = self.freqs()
        return np.hypot(kx, ky)


class GridFunction:
    """Complex-valued function on a :class:`Grid` with its spectral twin.

    Immutable: the sample and spectrum arrays are marked read-only once
    attached, so instances are safe to share across parallel workers.
    Construct via :meth:`from_samples` or :meth:`from_spectrum`; whichever
    side is missing is computed on first access and cached.
    """

    __slots__ = ("grid", "_samples", "_spectrum")

    def __init__(self, grid: Grid, samples=None, spectrum=None):
        if samples is None and spectrum is None:
            raise ValueError("need samples or spectrum")
        self.grid = grid
        self._samples = self._own(grid, samples)
        self._spectrum = self._own(grid, spectrum)

    @staticmethod
    def _own(grid, arr):
        if arr is None:
            return None
        arr = np.asarray(arr, dtype=complex)
        if arr.shape != grid.shape:
            raise ValueError(f"array shape {arr.shape} != grid shape {grid.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite values")
        arr = arr.copy()
        arr.flags.writeable = False
        return arr

    @classmethod
    def from_samples(cls, grid: Grid, samples) -> "GridFunction":
        return cls(grid, samples=samples)

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum) -> "GridFunction":
        return cls(grid, spectrum=spectrum)

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            s = inverse_lines(self.grid, self._spectrum)
            s.flags.writeable = False
            self._samples = s
        return self._samples

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            s = np.fft.fftn(self._samples) * self.grid.cell_volume
            s.flags.writeable = False
            self._spectrum = s
        return self._spectrum

    # -- arithmetic (pointwise in sample space, hence also in spectrum) ----

    def __add__(self, other):
        self._check_same_grid(other)
        if self._spectrum is not None and other._spectrum is not None:
            return GridFunction.from_spectrum(self.grid, self.spectrum + other.spectrum)
        return GridFunction.from_samples(self.grid, self.samples + other.samples)

    def __sub__(self, other):
        self._check_same_grid(other)
        if self._spectrum is not None and other._spectrum is not None:
            return GridFunction.from_spectrum(self.grid, self.spectrum - other.spectrum)
        return GridFunction.from_samples(self.grid, self.samples - other.samples)

    def __mul__(self, c):
        if isinstance(c, GridFunction):
            self._check_same_grid(c)
            return GridFunction.from_samples(self.grid, self.samples * c.samples)
        if self._spectrum is not None:
            return GridFunction.from_spectrum(self.grid, self.spectrum * c)
        return GridFunction.from_samples(self.grid, self.samples * c)

    __rmul__ = __mul__

    def _check_same_grid(self, other):
        if other.grid != self.grid:
            raise ValueError(f"grid mismatch: {self.grid} vs {other.grid}")

    def lp_norm(self, p: float, oversample: int = 1) -> float:
        """L^p quasi-norm by Riemann sum over the sample lattice.

        ``oversample > 1`` refines the quadrature lattice by spectral
        zero-padding before summing (useful for highly oscillatory inputs
        combined with small p).
        """
        f = self if oversample == 1 else upsample(self, oversample)
        return lp_norms(f.grid, np.abs(f.samples)[None], p)[0]

    def shifted(self, offsets: tuple) -> "GridFunction":
        """Translate by an integer number of lattice cells (periodically)."""
        return GridFunction.from_samples(self.grid, np.roll(self.samples, offsets, axis=tuple(range(self.grid.dim))))


def inverse_lines(grid: Grid, spectrum: np.ndarray) -> np.ndarray:
    """Samples of a spectrum, or of each line of a stack (lines, *grid.shape), by one inverse FFT.

    Each line gets the transform and the scaling of GridFunction.samples,
    which calls this with a single spectrum, so the bits are the same.
    """
    return np.fft.ifftn(spectrum, axes=tuple(range(-grid.dim, 0))) * (grid.size / grid.period**grid.dim)


def lp_norms(grid: Grid, a: np.ndarray, p: float) -> list:
    """L^p quasi-norm by Riemann sum of each line of a stack a of |f| samples, shape (lines, *grid.shape)."""
    axes = tuple(range(1, grid.dim + 1))
    if np.isinf(p):
        return [float(m) for m in a.max(axis=axes)]
    if p <= 0:
        raise ValueError("p must be positive")
    return [float((s * grid.cell_volume) ** (1.0 / p)) for s in np.sum(a**p, axis=axes)]


def make_grid(dim: int, n: int, period: float = 1.0) -> Grid:
    """Construct a grid, validating dim in {1, 2} and n a power of two >= 8."""
    return Grid(dim=dim, n=n, period=period)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Periodic convolution; spectrum of the result is the pointwise product."""
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")
    return GridFunction.from_spectrum(f.grid, f.spectrum * g.spectrum)


def upsample(f: GridFunction, factor: int) -> GridFunction:
    """Refine the sample lattice by zero-padding the spectrum.

    Exact for band-limited functions; the result represents the same
    trigonometric polynomial on a grid with ``factor * n`` samples per axis.
    """
    if factor == 1:
        return f
    if not _is_power_of_two(factor):
        raise ValueError("oversampling factor must be a power of two")
    grid = f.grid
    m = grid.n * factor
    fine = Grid(grid.dim, m, grid.period)
    spec = np.fft.fftshift(f.spectrum)
    pad = (m - grid.n) // 2
    widths = [(pad, pad)] * grid.dim
    spec = np.pad(spec, widths)
    return GridFunction.from_spectrum(fine, np.fft.ifftshift(spec))


_DUMP_MAGIC = "torusfs-gridfunction v1"


def save_gridfunction(f: GridFunction, path) -> None:
    """Write a textual dump: one header line, then n^d rows "re im".

    Header: ``torusfs-gridfunction v1 dim=<d> n=<n> period=<p> layout=row-major``.
    Rows list samples in row-major order with full double precision.
    """
    g = f.grid
    s = f.samples.reshape(-1)
    with open(path, "w") as fh:
        fh.write(f"{_DUMP_MAGIC} dim={g.dim} n={g.n} period={float(g.period)!r} layout=row-major\n")
        for v in s:
            fh.write(f"{float(v.real)!r} {float(v.imag)!r}\n")


def load_gridfunction(path) -> GridFunction:
    """Read a dump written by :func:`save_gridfunction`."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith(_DUMP_MAGIC):
            raise ValueError(f"{path}: not a torusfs gridfunction dump")
        fields = dict(tok.split("=", 1) for tok in header.split()[2:])
        grid = Grid(int(fields["dim"]), int(fields["n"]), float(fields["period"]))
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    if data.shape != (grid.size, 2):
        raise ValueError(f"{path}: expected {grid.size} sample rows, got {data.shape[0]}")
    samples = (data[:, 0] + 1j * data[:, 1]).reshape(grid.shape)
    return GridFunction.from_samples(grid, samples)
