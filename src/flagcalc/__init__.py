"""Exact Schubert calculus on generalized flag varieties G/P, the deformed
cup product, and tensor-invariant dimensions for Levi subgroups.

Quick start::

    from flagcalc import flag_context
    cx = flag_context("C", 3, crossed=(3,))   # the Lagrangian Grassmannian LG(3,6)
    w = cx.element((1, 2, 3))
    cx.ct.codim(w), cx.deformed.chi(w).levi_coords
"""

from .context import FlagContext, flag_context
from .deformed import DeformedRing
from .levi import LeviSystem
from .roots import ExactnessError, ParabolicData, RootSystem, build, parabolic, weyl_order
from .schubert import CupRing, SchubertEngine
from .weyl import CosetTable, WeylElement, WeylGroup, group, minimal_coset_reps

__version__ = "0.1.0"

__all__ = [
    "FlagContext", "flag_context",
    "DeformedRing", "cell_in_stabilizer_orbit", "cover_level_identity",
    "dj_profile", "dj_profile_at_cover", "stabilizer_simple_roots",
    "LeviSystem", "hom_dimension",
    "ExactnessError", "ParabolicData", "RootSystem", "build", "parabolic", "weyl_order",
    "CupRing", "ReferenceBGG", "SchubertEngine",
    "CosetTable", "WeylElement", "WeylGroup", "group", "minimal_coset_reps",
    "__version__",
]

# names of the modules that production never imports, resolved on first use
# so that `import flagcalc` loads neither
_ON_DEMAND = {"ReferenceBGG": "oracle", "cell_in_stabilizer_orbit": "oracle",
              "cover_level_identity": "oracle", "dj_profile": "cells",
              "dj_profile_at_cover": "oracle", "hom_dimension": "oracle",
              "stabilizer_simple_roots": "cells"}


def __getattr__(name):
    if name not in _ON_DEMAND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_ON_DEMAND[name]}"), name)
