"""Graph traversal: BFS, connected components, diameters.

Connectivity matters to the spectral pipeline: the Fiedler vector of a
disconnected graph is degenerate (the second eigenvalue is 0 and the
eigenvector is an indicator of a component), so
:mod:`repro.spectral.fiedler` uses :func:`connected_components` to handle
each component explicitly.  Diameters of the intersection graph were the
basis of Kahng's earlier 1989 hypergraph bisection heuristic, referenced in
Section 2.2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..errors import GraphError

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph

__all__ = [
    "bfs_order",
    "bfs_distances",
    "connected_components",
    "is_connected",
    "eccentricity",
    "approximate_diameter",
]


def _search(
    indptr: List[int], indices: List[int], start: int,
    dist: List[Optional[int]],
) -> List[int]:
    """Vertices reachable from ``start`` in BFS order, setting their hop
    distances in ``dist`` (``None`` marks a vertex not yet reached)."""
    dist[start] = 0
    order = [start]
    for u in order:  # the order list doubles as the BFS queue
        base = dist[u]
        assert base is not None
        for v in indices[indptr[u]:indptr[u + 1]]:
            if dist[v] is None:
                dist[v] = base + 1
                order.append(v)
    return order


def _bfs(g: "Graph", start: int, dist: List[Optional[int]]) -> List[int]:
    """:func:`_search` from a checked ``start`` over ``g``'s rows."""
    if not 0 <= start < g.num_vertices:
        raise GraphError(
            f"start vertex {start} out of range "
            f"(have {g.num_vertices} vertices)"
        )
    return _search(g.indptr.tolist(), g.indices.tolist(), start, dist)


def bfs_order(g: "Graph", start: int) -> List[int]:
    """Vertices reachable from ``start`` in BFS visitation order."""
    return _bfs(g, start, [None] * g.num_vertices)


def bfs_distances(g: "Graph", start: int) -> List[Optional[int]]:
    """Hop distances from ``start``; ``None`` for unreachable vertices."""
    dist: List[Optional[int]] = [None] * g.num_vertices
    _bfs(g, start, dist)
    return dist


def connected_components(g: "Graph") -> List[List[int]]:
    """All connected components, each a sorted list of Python ints.

    Components are ordered by their smallest vertex.  Isolated vertices
    form singleton components.  Computed by min-label propagation with
    hooking and pointer jumping: every vertex starts labelled by itself;
    each round it takes the smallest label among itself and its
    neighbours, hands that label on to the vertex its old label names,
    then takes the label of its label.  At the fixed point every vertex
    carries its component's smallest vertex, and one stable sort by
    label lists the components.
    """
    indptr, indices = g.indptr, g.indices
    # reduceat needs non-empty rows; isolated vertices keep their label.
    linked = np.flatnonzero(indptr[1:] > indptr[:-1])
    starts = indptr[linked]
    label = np.arange(g.num_vertices)
    while True:
        low = label.copy()
        if linked.size:
            low[linked] = np.minimum(
                low[linked], np.minimum.reduceat(label[indices], starts)
            )
        # Hooking moves a whole tree of labels at once; without it a
        # small label can creep one hop per round along a long path.
        new = low.copy()
        np.minimum.at(new, label, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    heads = np.flatnonzero(np.diff(label[order], prepend=-1)).tolist()
    vertices = order.tolist()
    bounds = heads + [len(vertices)]
    return [vertices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def is_connected(g: "Graph") -> bool:
    """True when ``g`` has exactly one connected component (or is empty)."""
    if g.num_vertices == 0:
        return True
    return len(bfs_order(g, 0)) == g.num_vertices


def eccentricity(g: "Graph", v: int) -> int:
    """Largest hop distance from ``v`` to any reachable vertex."""
    return max(d for d in bfs_distances(g, v) if d is not None)


def approximate_diameter(g: "Graph") -> int:
    """A lower bound on the diameter via double-sweep BFS.

    Runs BFS from vertex 0, then from the farthest vertex found; the
    second sweep's eccentricity is a well-known 2-approximation that is
    exact on trees.  Only the component containing vertex 0 is examined.
    """
    if g.num_vertices == 0:
        return 0
    first = bfs_distances(g, 0)
    reachable = [(d, v) for v, d in enumerate(first) if d is not None]
    farthest = max(reachable)[1]
    return eccentricity(g, farthest)
