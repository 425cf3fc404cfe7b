"""Dyadic function-space machinery on a discrete periodic domain.

Band decompositions, Besov / Triebel-Lizorkin norms, maximal operators,
a cube-indexed frame transform with atoms, symbol calculus for the (0,0)
class, and randomized lacunary constructions whose norm growth witnesses
the sharpness of the mapping exponents -- all realized exactly on uniform
grids over the torus, with seeded, reproducible audits.

``import torusfs`` loads no submodule.  Each name of ``__all__`` is
imported from its submodule on first access (PEP 562) and is the same
object as ``from torusfs.<module> import <name>``; a command or a caller
that never touches, say, ``torusfs.maximal`` never pays for loading it.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the names re-exported from it, in import order.
_EXPORTED = {
    "grid": ("Grid", "GridFunction", "convolve", "load_gridfunction", "make_grid", "save_gridfunction", "upsample"),
    "littlewood_paley": ("LPPartition", "band_project", "build_partition", "check_partition"),
    "dyadic": ("DyadicCube",),
    "maximal": ("PeetreParams", "dyadic_sharp", "hl_maximal", "peetre_maximal", "vector_sharp"),
    "spaces": ("AtomicDecomposition", "CoeffField", "PhiTransformFamily", "SpaceParams", "atomic_decompose",
               "besov_norm", "build_phi_family", "is_infty_atom", "phi_analyze", "phi_synthesize", "sequence_norm",
               "triebel_infty_norm", "triebel_norm", "triebel_sharp_norm"),
    "pseudo": ("BandKernel", "ParadiffDecomposition", "Symbol", "apply", "band_kernel", "band_symbol",
               "boundedness_region", "decompose_paradiff", "seminorm"),
    "experiments": ("LacunaryConfig", "RandomAtomConfig", "khintchine_audit", "khintchine_constants",
                    "lacunary_test_function", "oscillatory_multiplier", "rademacher_multiplier", "random_atom_train"),
    "report": ("AuditReport",),
}
_EXPORTS = {name: module for module, names in _EXPORTED.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
