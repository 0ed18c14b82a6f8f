"""Partition quality metrics.

The formulations of Section 1.1 of the paper:

* **net cut** — the number of nets with pins on both sides (the hypergraph
  cut; for 2-pin nets this equals the graph edge cut);
* **ratio cut** — Wei–Cheng's ``e(U, W) / (|U| · |W|)``;
* **balance / bisection width** helpers for the min-width-bisection
  baselines.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import List, Sequence

from ..errors import PartitionError
from ..graph import Graph
from ..hypergraph import Hypergraph

__all__ = [
    "cut_net_indices",
    "net_cut_count",
    "ratio_cut_cost",
    "ratio_cut_of_sides",
    "weighted_net_cut",
    "graph_edge_cut",
    "balance_ratio",
    "is_bisection",
]


def _check_sides(num_modules: int, side_of: Sequence[int]) -> None:
    if len(side_of) != num_modules:
        raise PartitionError(
            f"side assignment has {len(side_of)} entries for "
            f"{num_modules} modules"
        )


def cut_net_indices(h: Hypergraph, side_of: Sequence[int]) -> List[int]:
    """Nets with at least one pin on each side."""
    _check_sides(h.num_modules, side_of)
    cut = []
    for net, pins in h.iter_nets():
        if not pins:
            continue
        first = side_of[pins[0]]
        if any(side_of[p] != first for p in pins[1:]):
            cut.append(net)
    return cut


def net_cut_count(h: Hypergraph, side_of: Sequence[int]) -> int:
    """``e(U, W)`` — the number of cut nets."""
    return len(cut_net_indices(h, side_of))


def ratio_cut_cost(nets_cut: int, u_size: int, w_size: int) -> float:
    """``e(U, W) / (|U| · |W|)``; infinity when a side is empty.

    An empty side means "no partition at all"; returning infinity lets
    sweep loops ignore such degenerate candidates uniformly.
    """
    if u_size <= 0 or w_size <= 0:
        return float("inf")
    return nets_cut / (u_size * w_size)


def ratio_cut_of_sides(h: Hypergraph, side_of: Sequence[int]) -> float:
    """Ratio cut of a full side assignment."""
    _check_sides(h.num_modules, side_of)
    u_size = sum(1 for s in side_of if s == 0)
    w_size = len(side_of) - u_size
    return ratio_cut_cost(net_cut_count(h, side_of), u_size, w_size)


def weighted_net_cut(h: Hypergraph, side_of: Sequence[int]) -> float:
    """Total *weight* of cut nets (Section 1.1's weighted-edge view),
    summed left to right in net order.

    Equals :func:`net_cut_count` on unweighted netlists.  Not builtin
    ``sum()``: from Python 3.12 it compensates its rounding, so the
    total would depend on the interpreter.
    """
    return reduce(
        add, (h.net_weight(net) for net in cut_net_indices(h, side_of)), 0
    )


def graph_edge_cut(g: Graph, side_of: Sequence[int]) -> float:
    """Total weight of graph edges crossing the partition, summed left
    to right in :meth:`Graph.edges` order (not builtin ``sum()``, as in
    :func:`weighted_net_cut`)."""
    if len(side_of) != g.num_vertices:
        raise PartitionError(
            f"side assignment has {len(side_of)} entries for "
            f"{g.num_vertices} vertices"
        )
    return reduce(
        add, (w for u, v, w in g.edges() if side_of[u] != side_of[v]), 0
    )


def balance_ratio(side_of: Sequence[int]) -> float:
    """``min(|U|, |W|) / n`` — 0.5 for a perfect bisection."""
    n = len(side_of)
    if n == 0:
        return 0.0
    u_size = sum(1 for s in side_of if s == 0)
    return min(u_size, n - u_size) / n


def is_bisection(side_of: Sequence[int]) -> bool:
    """True when the side sizes differ by at most one."""
    n = len(side_of)
    u_size = sum(1 for s in side_of if s == 0)
    return abs(2 * u_size - n) <= 1
