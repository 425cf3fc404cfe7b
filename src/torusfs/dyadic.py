"""Dyadic cubes on the unit torus and fast block statistics.

Cubes are anchored at 0: at scale k the torus [0,1)^d splits into 2^(kd)
cubes of side 2^-k, indexed by integer offsets in {0..2^k-1}^d.  Only side
lengths <= 1 occur (k >= 0).  Grid arrays with n = 2^N samples per axis
align exactly with every scale k <= N, which makes cube averages cheap
reshape-reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DyadicCube", "block_reduce", "cube_blocks", "expand_blocks", "grid_depth"]


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube of side 2^-k at integer offset, on the unit torus."""

    k: int
    offset: tuple
    dim: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("scale k must be >= 0 (side length <= 1)")
        off = tuple(int(o) for o in self.offset)
        if len(off) != self.dim:
            raise ValueError(f"offset length {len(off)} != dim {self.dim}")
        if not all(0 <= o < 2**self.k for o in off):
            raise ValueError(f"offset {off} outside torus at scale {self.k}")
        object.__setattr__(self, "offset", off)

    @property
    def volume(self) -> float:
        return 2.0 ** (-self.k * self.dim)

    def sample_slices(self, n: int) -> tuple:
        """Index slices selecting this cube's samples in an (n,)*dim array."""
        w = n >> self.k
        if w << self.k != n:
            raise ValueError(f"grid n={n} does not resolve scale {self.k}")
        return tuple(slice(o * w, (o + 1) * w) for o in self.offset)


def grid_depth(n: int) -> int:
    """Finest dyadic scale resolved by n samples per axis (= log2 n)."""
    depth = int(np.log2(n))
    if 2**depth != n:
        raise ValueError(f"n={n} is not a power of two")
    return depth


def cube_blocks(arr: np.ndarray, mu: int, dim: int) -> np.ndarray:
    """View arr's last dim axes, n long each, as (2^mu, n / 2^mu) pairs: [..., i, a, j, b] is cube (i, j)'s sample (a, b)."""
    n = arr.shape[-1]
    m = 2**mu
    b = n // m
    if m * b != n:
        raise ValueError(f"scale {mu} not resolved by n={n}")
    return arr.reshape(arr.shape[: arr.ndim - dim] + (m, b) * dim)


def block_reduce(arr: np.ndarray, mu: int, op=np.mean) -> np.ndarray:
    """Reduce an (n,)*d array over dyadic blocks at scale mu -> (2^mu,)*d."""
    return op(cube_blocks(arr, mu, arr.ndim), axis=tuple(range(1, 2 * arr.ndim, 2)))


def expand_blocks(blocks: np.ndarray, n: int) -> np.ndarray:
    """Broadcast per-block values back to the full (n,)*d sample lattice."""
    m = blocks.shape[0]
    b = n // m
    for axis in range(blocks.ndim):
        blocks = np.repeat(blocks, b, axis=axis)
    return blocks
