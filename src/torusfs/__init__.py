"""Dyadic function-space machinery on a discrete periodic domain.

Band decompositions, Besov / Triebel-Lizorkin norms, maximal operators,
a cube-indexed frame transform with atoms, symbol calculus for the (0,0)
class, and randomized lacunary constructions whose norm growth witnesses
the sharpness of the mapping exponents -- all realized exactly on uniform
grids over the torus, with seeded, reproducible audits.
"""

from .grid import Grid, GridFunction, convolve, load_gridfunction, make_grid, save_gridfunction, upsample
from .littlewood_paley import LPPartition, band_project, build_partition, check_partition
from .dyadic import DyadicCube
from .maximal import PeetreParams, dyadic_sharp, hl_maximal, peetre_maximal, vector_sharp
from .spaces import (
    AtomicDecomposition,
    CoeffField,
    PhiTransformFamily,
    SpaceParams,
    atomic_decompose,
    besov_norm,
    build_phi_family,
    is_infty_atom,
    phi_analyze,
    phi_synthesize,
    sequence_norm,
    triebel_infty_norm,
    triebel_norm,
    triebel_sharp_norm,
)
from .pseudo import BandKernel, ParadiffDecomposition, Symbol, apply, band_kernel, band_symbol, boundedness_region, decompose_paradiff, seminorm
from .experiments import (
    LacunaryConfig,
    RandomAtomConfig,
    khintchine_audit,
    khintchine_constants,
    lacunary_test_function,
    oscillatory_multiplier,
    rademacher_multiplier,
    random_atom_train,
)
from .report import AuditReport

__version__ = "0.1.0"
