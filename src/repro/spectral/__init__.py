"""Spectral engine: Lanczos, Fiedler vectors, orderings and split sweeps.

Implements the numerical machinery of Sections 1.1 and 3 of the paper: the
second-smallest eigenpair of the Laplacian ``Q = D - A`` (via our own
fully-reorthogonalised Lanczos or scipy's ``eigsh``), the linear vertex
orderings it induces, incremental evaluation of all prefix splits, and
Hall's quadratic placement (Appendix A).
"""

from .fiedler import (
    FiedlerResult,
    component_spectral_values,
    fiedler_vector,
)
from .hall import HallPlacement, hall_placement, quadratic_wirelength
from .lanczos import LanczosResult, lanczos_extreme
from .ordering import ordering_from_values, spectral_ordering
from .rqi import RQIResult, rayleigh_quotient_iteration
from .splits import SplitPoint, SplitSweep, sweep_module_splits

__all__ = [
    "FiedlerResult",
    "HallPlacement",
    "LanczosResult",
    "SplitPoint",
    "SplitSweep",
    "component_spectral_values",
    "fiedler_vector",
    "hall_placement",
    "lanczos_extreme",
    "ordering_from_values",
    "quadratic_wirelength",
    "rayleigh_quotient_iteration",
    "RQIResult",
    "spectral_ordering",
    "sweep_module_splits",
]
