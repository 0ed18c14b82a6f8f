"""Conversions between :class:`~repro.graph.Graph` and external libraries.

networkx is an optional test/interop dependency; the import is deferred so
the core library works without it.
"""

from __future__ import annotations


import scipy.sparse as sp

from ..errors import GraphError
from .graph import Graph

__all__ = ["from_scipy_sparse", "to_networkx", "from_networkx"]


def from_scipy_sparse(matrix: sp.spmatrix) -> Graph:
    """Build a :class:`Graph` from a symmetric sparse adjacency matrix.

    The diagonal is ignored (``A_ii = 0`` convention); asymmetric input is
    rejected.
    """
    matrix = sp.coo_matrix(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise GraphError(f"adjacency matrix must be square, got {matrix.shape}")
    asymmetry = abs(matrix - matrix.T)
    if asymmetry.nnz and not asymmetry.max() <= 1e-12:  # NaN fails too
        raise GraphError("adjacency matrix must be symmetric")
    upper = (matrix.row < matrix.col) & (matrix.data != 0)
    return Graph.from_edges(
        matrix.shape[0],
        matrix.row[upper],
        matrix.col[upper],
        matrix.data[upper],
    )


def to_networkx(g: Graph):
    """Convert to a ``networkx.Graph`` with ``weight`` edge attributes."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(g.num_vertices))
    out.add_weighted_edges_from(g.edges())
    return out


def from_networkx(nxg) -> Graph:
    """Convert a ``networkx.Graph`` with integer nodes ``0..n-1``.

    Missing ``weight`` attributes default to 1.0.
    """
    nodes = sorted(nxg.nodes())
    if nodes != list(range(len(nodes))):
        raise GraphError(
            "networkx graph must be labelled with integers 0..n-1; "
            "relabel with networkx.convert_node_labels_to_integers first"
        )
    edges = nxg.edges(data="weight", default=1.0)
    u, v, w = list(zip(*edges)) or [(), (), ()]
    return Graph.from_edges(len(nodes), u, v, w)
