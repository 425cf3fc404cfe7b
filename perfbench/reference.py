"""Dense numpy re-evaluation of the growth experiments' per-draw norms.

Used to check the program's sparse, cached evaluators.  Everything here is
computed on the full frequency lattice: band windows are the public
``LPPartition`` profiles sampled at every lattice point, each band goes
through its own inverse FFT, and train spectra are rebuilt from the active
cubes the program returns, with each phase e^{-2 pi i c xi} reduced exactly
(c xi is a dyadic rational) before it is exponentiated.  The program's
private helpers are not used.
"""

from __future__ import annotations

import numpy as np

from torusfs.experiments import atom_train_spectrum, rademacher_signs
from torusfs.grid import Grid
from torusfs.littlewood_paley import LPPartition


def lattice(n: int) -> np.ndarray:
    """Integer frequencies of an n-point unit-torus lattice, FFT order."""
    return np.concatenate([np.arange(0, n // 2), np.arange(-n // 2, 0)])


def reproducing(r) -> np.ndarray:
    """The four-octave reproducing window, as a sum of four partition profiles."""
    lp = LPPartition(J=4)
    return sum(lp.profile(j, r) for j in range(1, 5))


def band_functions(spec: np.ndarray):
    """Samples of every band projection (base band and bands 1..log2 n)."""
    n = len(spec)
    top = int(np.log2(n))
    lp = LPPartition(J=top)
    r = np.abs(lattice(n)).astype(float)
    for k in range(top + 1):
        yield np.fft.ifft(spec * lp.profile(k, r)) * n


def mixed_norm(spec: np.ndarray, p: float, t: float) -> float:
    """L^p norm of the pointwise l^t sum over all bands."""
    stack = sum(np.abs(f) ** t for f in band_functions(spec))
    return float(np.mean(stack ** (p / t)) ** (1.0 / p))


def train_spectrum(atoms, actives: dict, n: int) -> np.ndarray:
    """amplitude 2^-z G(xi / 2^z) sum_Q e^{-2 pi i c_Q xi}, c_Q = (2a+1) 2^-(z+1)."""
    xi = lattice(n)
    spec = np.zeros(n, dtype=complex)
    for k in atoms.scales():
        z = atoms.zeta(k)
        active = np.asarray(actives[k], dtype=np.int64)
        if len(active) == 0:
            continue
        period = 2 ** (z + 1)
        turns = ((2 * active[:, None] + 1) * xi[None, :]) % period
        phase = np.exp(-2j * np.pi * turns / period).sum(axis=0)
        spec += atoms.amplitude(k) * 2.0**-z * reproducing(np.abs(xi) / 2.0**z) * phase
    return spec


def multiplier(lac, n: int, draw: int) -> np.ndarray:
    """sum_k 2^(zeta m) sum_{shell n'} sign_n' phihat(xi - n') on the n-point lattice."""
    signs = rademacher_signs(lac, draw)
    on_lattice = np.zeros(n)
    for k in lac.scales():
        lo, hi = lac.shell_bounds(k)
        pos, neg = signs[k]
        weight = 2.0 ** (lac.zeta(k) * lac.m)
        shell = np.arange(lo, hi)
        on_lattice[shell % n] = weight * pos
        on_lattice[(-shell) % n] = weight * neg
    mother = LPPartition(J=3).mother
    out = np.zeros(n)
    for delta in (-2, -1, 0, 1, 2):
        out += float(mother(abs(delta))) * np.roll(on_lattice, delta)
    return out


def fspace_draw_norms(lac, atoms, draw: int, p: float, q: float, t: float) -> tuple:
    """(input norm, output norm) of one draw at the configs' top scale L."""
    n_in = 2 ** (atoms.zeta(atoms.L) + 6)
    _, actives = atom_train_spectrum(atoms, Grid(1, n_in), draw)
    in_norm = mixed_norm(train_spectrum(atoms, actives, n_in), p, q)
    n_out = 2 ** (lac.zeta(lac.L) + 5)
    out_spec = multiplier(lac, n_out, draw) * train_spectrum(atoms, actives, n_out)
    return in_norm, mixed_norm(out_spec, p, t)
