"""Spectral lower bounds on the ratio cut (Theorem 1).

Hagen–Kahng: for a netlist graph with Laplacian ``Q = D - A`` on ``n``
vertices, the second-smallest eigenvalue ``lambda_2`` bounds the optimal
ratio cut cost: ``c_opt >= lambda_2 / n``.  These helpers evaluate the
bound and check partitions against it — a useful sanity invariant for
both the eigensolvers and the graph-cut metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SpectralError
from ..graph import Graph
from ..partitioning.metrics import graph_edge_cut
from ..spectral import fiedler_vector

__all__ = [
    "RatioCutBound",
    "bisection_width_lower_bound",
    "check_bound",
    "ratio_cut_lower_bound",
]


@dataclass(frozen=True)
class RatioCutBound:
    """Theorem 1's bound for one graph."""

    lambda_2: float
    num_vertices: int

    @property
    def bound(self) -> float:
        return self.lambda_2 / self.num_vertices


def ratio_cut_lower_bound(g: Graph, seed: int = 0) -> RatioCutBound:
    """Compute ``lambda_2 / n`` for a connected graph ``g``."""
    result = fiedler_vector(g, seed=seed)
    return RatioCutBound(
        lambda_2=result.eigenvalue, num_vertices=g.num_vertices
    )


def bisection_width_lower_bound(g: Graph, seed: int = 0) -> float:
    """The classical spectral bound on the bisection width.

    For an exact bisection ``|U| = |W| = n/2`` the cut weight satisfies
    ``e(U, W) >= n * lambda_2 / 4`` — the Donath–Hoffman-family bound
    (paper refs [5], [6]; it is Theorem 1 specialised to the bisection
    denominator ``(n/2)^2 = n^2/4``).
    """
    result = fiedler_vector(g, seed=seed)
    return g.num_vertices * result.eigenvalue / 4.0


def check_bound(g: Graph, sides, tolerance: float = 1e-8) -> bool:
    """Verify a partition's (graph) ratio cut respects Theorem 1.

    The ratio cut here is the *edge-weighted* cut over ``|U|*|W|`` — the
    graph-theoretic quantity the theorem bounds.  Returns True when the
    bound holds within ``tolerance``.
    """
    u = sum(1 for s in sides if s == 0)
    w = len(sides) - u
    if u == 0 or w == 0:
        raise SpectralError("both sides must be non-empty")
    cost = graph_edge_cut(g, sides) / (u * w)
    bound = ratio_cut_lower_bound(g).bound
    return cost >= bound - tolerance
