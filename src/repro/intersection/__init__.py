"""The netlist intersection graph (the paper's dual representation).

Vertices are signal nets; edges join nets sharing at least one module,
weighted per Section 2.2 of the paper (or an alternative named scheme
from :mod:`repro.intersection.weights`).
"""

from .build import (
    EdgeState,
    graph_from_edge_state,
    intersection_edge_state,
    intersection_graph,
    intersection_nonzeros,
)
from .weights import (
    available_weightings,
    get_weighting,
    jaccard_weight,
    overlap_weight,
    paper_weight,
    unit_weight,
)

__all__ = [
    "EdgeState",
    "available_weightings",
    "get_weighting",
    "graph_from_edge_state",
    "intersection_edge_state",
    "intersection_graph",
    "intersection_nonzeros",
    "jaccard_weight",
    "overlap_weight",
    "paper_weight",
    "unit_weight",
]
