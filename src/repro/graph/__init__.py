"""Sparse weighted graph substrate.

The graph representation shared by the net-model expansions of the netlist
hypergraph and by the intersection graph, together with matrix assembly
(adjacency, degree, Laplacian) and traversal utilities.
"""

from .convert import from_networkx, from_scipy_sparse, to_networkx
from .graph import Graph
from .laplacian import adjacency_matrix, degree_matrix, laplacian_matrix
from .traversal import (
    approximate_diameter,
    bfs_distances,
    bfs_order,
    connected_components,
    eccentricity,
    is_connected,
)

__all__ = [
    "Graph",
    "adjacency_matrix",
    "approximate_diameter",
    "bfs_distances",
    "bfs_order",
    "connected_components",
    "degree_matrix",
    "eccentricity",
    "from_networkx",
    "from_scipy_sparse",
    "is_connected",
    "laplacian_matrix",
    "to_networkx",
]
