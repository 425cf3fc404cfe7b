"""Stable catalog of built-in symbols and test functions.

Identifiers are part of the command-line contract and are snapshot-tested;
add new entries rather than renaming existing ones.  Symbol selectors are
parsed from strings like ``bessel(-0.5)`` or ``rademacher(6,11)``.
Listing the catalog loads nothing beyond ``torusfs.grid``; each factory
branch imports the module that builds its object when it runs.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING

import numpy as np

from .grid import Grid, GridFunction

if TYPE_CHECKING:
    from .pseudo import Symbol

__all__ = ["list_registry", "make_symbol", "make_test_function"]

_SYMBOLS = {
    "identity": "constant symbol 1 (order 0)",
    "bessel(m)": "(1 + |xi|^2)^(m/2), order m",
    "oscillatory(m,rho)": "e^(-2 pi i |xi|^(1-rho)) (1+|xi|^2)^(m/2), order m",
    "sinsin": "sin(2 pi x) sin(xi), the minimal x-dependent symbol (order 0)",
    "rademacher(L,seed)": "random-sign shell multiplier, scales 3..L at spacing 2, order 0",
}

_FUNCTIONS = {
    "constant(c)": "constant function c",
    "exponential(freq)": "pure frequency e^(2 pi i freq x)",
    "random(seed,radius)": "random spectrum supported in |xi| <= radius",
    "spike(radius)": "reproducing kernel of the ball |xi| <= radius",
    "atom-train(L,seed)": "random train of rescaled windows, scales 3..L at spacing 2",
    "lacunary(L)": "deterministic lacunary window sum, scales 3..L at spacing 2",
}


def list_registry() -> dict:
    """Catalog of stable identifiers, grouped by kind."""
    return {"symbols": dict(_SYMBOLS), "functions": dict(_FUNCTIONS)}


def _number(tok: str):
    """An integer literal as int, any other finite number as float."""
    if re.fullmatch(r"[+-]?[0-9]+", tok):
        return int(tok)
    value = float(tok)  # ValueError on empty or malformed tokens
    if not math.isfinite(value):
        raise ValueError(f"selector argument {tok!r} is not finite")
    return value


def _parse(spec: str):
    m = re.fullmatch(r"\s*([a-zA-Z-]+)\s*(?:\(([^)]*)\))?\s*", spec)
    if not m:
        raise ValueError(f"cannot parse selector {spec!r}")
    name = m.group(1)
    args = [_number(tok.strip()) for tok in m.group(2).split(",")] if m.group(2) else []
    return name, args


def _need(name: str, args, count: int) -> None:
    if len(args) < count:
        raise ValueError(f"{name} takes {count} argument(s), got {len(args)}; see the registry")


def make_symbol(spec: str, dim: int = 1) -> Symbol:
    """Instantiate a registry symbol from a selector string."""
    from .pseudo import Symbol

    name, args = _parse(spec)
    if name == "identity":
        return Symbol.identity(dim)
    if name == "bessel":
        _need(name, args, 1)
        return Symbol.bessel(float(args[0]), dim)
    if name == "oscillatory":
        _need(name, args, 2)
        from .experiments import oscillatory_multiplier

        return oscillatory_multiplier(float(args[0]), float(args[1]), dim)
    if name == "sinsin":
        return Symbol.sin_sin()
    if name == "rademacher":
        _need(name, args, 1)
        L = int(args[0])
        seed = int(args[1]) if len(args) > 1 else 0
        from .experiments import LacunaryConfig, rademacher_multiplier

        return rademacher_multiplier(LacunaryConfig(L=L, spacing=2, m=0.0, seed=seed, d=dim))
    raise ValueError(f"unknown symbol {name!r}; see the registry")


def make_test_function(spec: str, grid: Grid) -> GridFunction:
    """Instantiate a registry test function on a grid."""
    name, args = _parse(spec)
    if name == "constant":
        c = args[0] if args else 1.0
        return GridFunction.from_samples(grid, np.full(grid.shape, complex(c)))
    if name == "exponential":
        freqs = grid.coords()
        phase = sum(2j * np.pi * float(a) * x for a, x in zip(args, freqs))
        return GridFunction.from_samples(grid, np.exp(phase))
    if name == "random":
        from .maximal import band_limited_function

        seed = int(args[0]) if args else 0
        radius = float(args[1]) if len(args) > 1 else grid.nyquist / 4
        return band_limited_function(grid, radius, np.random.default_rng(seed), kind="random")
    if name == "spike":
        from .maximal import band_limited_function

        radius = float(args[0]) if args else grid.nyquist / 4
        return band_limited_function(grid, radius, None, kind="spike")
    if name == "atom-train":
        _need(name, args, 1)
        L = int(args[0])
        seed = int(args[1]) if len(args) > 1 else 0
        from .experiments import RandomAtomConfig, random_atom_train

        return random_atom_train(RandomAtomConfig(L=L, spacing=2, seed=seed, d=grid.dim), grid)
    if name == "lacunary":
        _need(name, args, 1)
        L = int(args[0])
        from .experiments import RandomAtomConfig, lacunary_test_function

        return lacunary_test_function(RandomAtomConfig(L=L, spacing=2, d=grid.dim), grid)
    raise ValueError(f"unknown test function {name!r}; see the registry")
