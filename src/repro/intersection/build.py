"""Construction of the netlist intersection graph.

Given the netlist hypergraph ``H = (V', E')`` with ``m`` nets, the
intersection graph ``G'`` (Section 2.2) has one vertex per net, and an edge
between two nets exactly when they share at least one module.  ``G'`` is
uniquely determined by ``H``; the converse does not hold.

Construction is O(total pin pair work): for each module of degree ``d`` we
touch its ``C(d, 2)`` incident-net pairs, vectorised over the hypergraph's
CSR incidence arrays, and evaluate a named
:mod:`weighting <repro.intersection.weights>` per intersecting pair.
"""

from __future__ import annotations

from typing import NamedTuple

from ..graph import Graph
from ..hypergraph import Hypergraph
from ..obs import incr, span
from .weights import get_weighting

__all__ = [
    "EdgeState",
    "graph_from_edge_state",
    "intersection_edge_state",
    "intersection_graph",
    "intersection_nonzeros",
]


class EdgeState(NamedTuple):
    """The intersection graph as three parallel arrays.

    One entry per edge ``(edge_a[i], edge_b[i])`` with ``a < b`` and
    weight ``weights[i]``.  Entries are in canonical order — sorted by
    the smallest shared module, then ``(a, b)``: the order a
    module-by-module scan first meets each pair — so building a graph
    from them with :func:`graph_from_edge_state` reproduces a cold
    build's adjacency byte for byte.
    """

    edge_a: "object"  # np.ndarray[int64]
    edge_b: "object"  # np.ndarray[int64]
    weights: "object"  # np.ndarray[float64]

    @property
    def num_edges(self) -> int:
        return int(self.edge_a.size)


def intersection_graph(h: Hypergraph, weighting: str = "paper") -> Graph:
    """Build the weighted intersection graph ``G'`` of ``h``.

    Parameters
    ----------
    h:
        The netlist hypergraph.  Nets of size 0 or 1 become isolated
        vertices of ``G'`` (they share no module with anything), which the
        downstream spectral code tolerates; prefer
        :func:`repro.hypergraph.drop_degenerate_nets` first.
    weighting:
        A scheme name (``"paper"``, ``"unit"``, ``"overlap"``,
        ``"jaccard"``); see :mod:`repro.intersection.weights`.  Any
        other value raises :class:`~repro.errors.ReproError`.

    Returns
    -------
    Graph
        A graph on ``h.num_nets`` vertices where vertex ``j`` is net ``j``,
        carrying its symmetric CSR adjacency arrays.
    """
    with span(
        "intersection.build", nets=h.num_nets, modules=h.num_modules
    ) as sp:
        g = graph_from_edge_state(
            h.num_nets, intersection_edge_state(h, weighting)
        )
        sp.set(edges=g.num_edges)
        incr("intersection.builds")
        incr("intersection.edges", g.num_edges)
    return g


def intersection_edge_state(
    h: Hypergraph, weighting_name: str = "paper"
) -> EdgeState:
    """Compute the canonical :class:`EdgeState` of ``h`` vectorised.

    Each pin of a module's row is paired with the pins after it, so
    the ``(module, a, b)`` co-incidences are laid out module by module,
    in (module, a, b) order, with no sort.  One stable sort of the key
    ``a * num_nets + b`` groups them by edge with modules ascending, and
    a plain sort of each edge's first position in that layout gives the
    canonical order.  Weight values are bitwise those of the per-pair
    weighting functions in :mod:`repro.intersection.weights` (the same
    IEEE operations in the same order).  Touches ``h.csr``
    (materialising it if needed).
    """
    import numpy as np

    get_weighting(weighting_name)  # reject unknown names early
    csr = h.csr
    indptr = csr.module_indptr
    indices = csr.module_indices
    degrees = np.diff(indptr)
    # The pin at place i of a d-net module row pairs with the d - 1 - i
    # pins after it, so the co-incidences come out module by module,
    # each module's pairs in (a, b) order, with no sort.
    pin_degree = np.repeat(degrees, degrees)
    partners = pin_degree - 1 - (
        np.arange(indices.size) - np.repeat(indptr[:-1], degrees)
    )
    num_pairs = int(partners.sum())
    if not num_pairs:
        empty_i = np.empty(0, dtype=np.int64)
        return EdgeState(empty_i, empty_i, np.empty(0, dtype=np.float64))
    src = np.repeat(np.arange(indices.size), partners)
    step = np.arange(num_pairs) - np.repeat(
        np.cumsum(partners) - partners, partners
    )
    a = indices[src]
    b = indices[src + 1 + step]

    # Group co-incidences by edge.  The sort is stable, so modules stay
    # ascending within a group (the order the per-pair weightings sum
    # them in), and a group's first entry is its first co-incidence.
    key = a * h.num_nets + b
    order = np.argsort(key, kind="stable")
    key = key[order]
    boundary = np.empty(num_pairs, dtype=bool)
    boundary[0] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:])
    group_start = np.flatnonzero(boundary)
    counts = np.diff(np.append(group_start, num_pairs))
    first = order[group_start]
    edge_a = a[first]
    edge_b = b[first]

    sizes = np.diff(csr.net_indptr)
    if weighting_name == "unit":
        weights = np.ones(edge_a.size, dtype=np.float64)
    elif weighting_name == "overlap":
        weights = counts.astype(np.float64)
    elif weighting_name == "jaccard":
        union = sizes[edge_a] + sizes[edge_b] - counts
        weights = counts / union
    else:  # "paper" — get_weighting() already rejected unknown names
        size_term = 1.0 / sizes[edge_a] + 1.0 / sizes[edge_b]
        # d - 1 of each co-incidence's module, in layout order.
        divisor = pin_degree[src] - 1.0
        # Accumulate each edge's per-module terms sequentially (lowest
        # module first, one IEEE add per round) — exactly
        # paper_weight's summation order, never numpy's pairwise
        # reduction.  Round k runs over the edges sharing more than k
        # modules; round 0 is 0.0 + term, which is the term itself.
        weights = size_term / divisor[first]
        edges = np.flatnonzero(counts > 1)
        for k in range(1, int(counts.max())):
            edges = edges[counts[edges] > k]
            weights[edges] += (
                size_term[edges] / divisor[order[group_start[edges] + k]]
            )

    keep = weights > 0
    if not np.all(keep):
        edge_a = edge_a[keep]
        edge_b = edge_b[keep]
        first = first[keep]
        weights = weights[keep]

    # Positions run in (module, a, b) order and are distinct.
    enc = np.argsort(first)
    return EdgeState(edge_a[enc], edge_b[enc], weights[enc])


def graph_from_edge_state(num_nets: int, state: EdgeState) -> Graph:
    """Materialise a :class:`~repro.graph.Graph` from an edge state.

    :meth:`Graph.from_edges <repro.graph.Graph.from_edges>` takes the
    edges in array order, so a canonical state reproduces a cold
    build's rows, in the same order, exactly.
    """
    return Graph.from_edges(
        num_nets, state.edge_a, state.edge_b, state.weights
    )


def intersection_nonzeros(h: Hypergraph) -> int:
    """Nonzeros in the intersection-graph adjacency matrix.

    This is the quantity the paper compares against the clique model's
    nonzero count (e.g. Test05: 19 935 vs 219 811) to argue the dual
    representation is an order of magnitude sparser.
    """
    return 2 * intersection_edge_state(h, "unit").num_edges
