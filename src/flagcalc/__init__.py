"""Exact Schubert calculus on generalized flag varieties G/P, the deformed
cup product, and tensor-invariant dimensions for Levi subgroups.

Quick start::

    from flagcalc import flag_context
    cx = flag_context("C", 3, crossed=(3,))   # the Lagrangian Grassmannian LG(3,6)
    w = cx.element((1, 2, 3))
    cx.ct.codim(w), cx.deformed.chi(w).levi_coords
"""

from .context import FlagContext, flag_context
from .deformed import (DeformedRing, cell_in_stabilizer_orbit, cover_level_identity,
                       dj_profile, dj_profile_at_cover, stabilizer_simple_roots)
from .levi import LeviSystem, hom_dimension
from .roots import (ExactnessError, ParabolicData, RootSystem, build, parabolic, rho_levi,
                    weyl_order)
from .schubert import CohomClass, CupRing, ReferenceBGG, SchubertEngine
from .weyl import CosetTable, WeylElement, WeylGroup, group, minimal_coset_reps

__version__ = "0.1.0"

__all__ = [
    "FlagContext", "flag_context",
    "DeformedRing", "cell_in_stabilizer_orbit", "cover_level_identity",
    "dj_profile", "dj_profile_at_cover", "stabilizer_simple_roots",
    "LeviSystem", "hom_dimension",
    "ExactnessError", "ParabolicData", "RootSystem", "build", "parabolic", "rho_levi",
    "weyl_order",
    "CohomClass", "CupRing", "ReferenceBGG", "SchubertEngine",
    "CosetTable", "WeylElement", "WeylGroup", "group", "minimal_coset_reps",
    "__version__",
]
