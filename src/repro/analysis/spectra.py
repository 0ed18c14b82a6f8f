"""Graph-spectra utilities: conductance and the Cheeger bounds.

Section 1.1 of the paper grounds spectral partitioning in "the
relatively recent subfield of graph theory dealing with graph spectra"
[4].  The tightest classical link between the Fiedler value and cut
quality is Cheeger's inequality for the *normalised* Laplacian
``L = I - D^{-1/2} A D^{-1/2}``:

.. math::

    \\lambda_2 / 2 \\;\\le\\; h(G) \\;\\le\\; \\sqrt{2 \\lambda_2}

where ``h(G)`` is the conductance (the volume-normalised sibling of the
ratio cut).  These helpers compute conductance, the normalised
spectrum, and both Cheeger bounds — used by the tests as independent
sanity checks on the spectral engine, and useful for diagnosing *why* a
circuit partitions well or badly (small spectral gap ⇒ a good natural
cut exists).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import List, Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import SpectralError
from ..graph import Graph, adjacency_matrix, connected_components

__all__ = [
    "CheegerBounds",
    "conductance",
    "normalized_laplacian",
    "normalized_fiedler_value",
    "cheeger_bounds",
    "sweep_conductance",
]


def conductance(g: Graph, subset: Sequence[int]) -> float:
    """Conductance of a vertex subset S.

    ``h(S) = cut(S, V-S) / min(vol(S), vol(V-S))`` with volumes the sums
    of weighted degrees, each summed left to right (builtin ``sum()``
    compensates its rounding from Python 3.12, so its totals depend on
    the interpreter).  Raises for empty or full subsets.
    """
    members = set(int(v) for v in subset)
    if not members or len(members) >= g.num_vertices:
        raise SpectralError(
            "conductance needs a proper non-empty vertex subset"
        )
    cut = 0.0
    for u, v, w in g.edges():
        if (u in members) != (v in members):
            cut += w
    degrees = g.degrees()
    vol_s = reduce(add, (degrees[v] for v in members), 0)
    vol_rest = reduce(add, degrees, 0) - vol_s
    denominator = min(vol_s, vol_rest)
    if denominator == 0:
        return float("inf")
    return cut / denominator


def normalized_laplacian(g: Graph) -> sp.csr_matrix:
    """``L = I - D^{-1/2} A D^{-1/2}`` (isolated vertices kept, with
    zero coupling)."""
    adjacency = adjacency_matrix(g)
    degrees = np.asarray(g.degrees(), dtype=float)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
    scaling = sp.diags(inv_sqrt)
    n = g.num_vertices
    return (
        sp.identity(n, format="csr") - scaling @ adjacency @ scaling
    ).tocsr()


def normalized_fiedler_value(g: Graph) -> float:
    """The second-smallest eigenvalue of the normalised Laplacian.

    Requires a connected graph with at least 2 vertices.  Computed
    densely — the diagnostic is intended for analysis, not inner loops.
    """
    if g.num_vertices < 2:
        raise SpectralError("need at least 2 vertices")
    if len(connected_components(g)) != 1:
        raise SpectralError("normalised Fiedler value needs connectivity")
    values = np.linalg.eigvalsh(normalized_laplacian(g).toarray())
    return float(values[1])


@dataclass(frozen=True)
class CheegerBounds:
    """``lambda_2/2 <= h(G) <= sqrt(2*lambda_2)`` for one graph."""

    lambda_2: float
    lower: float
    upper: float

    def contains(self, value: float, tolerance: float = 1e-9) -> bool:
        return self.lower - tolerance <= value <= self.upper + tolerance


def cheeger_bounds(g: Graph) -> CheegerBounds:
    """Cheeger's inequality bounds on the conductance of ``g``."""
    lam = normalized_fiedler_value(g)
    lam = max(0.0, lam)
    return CheegerBounds(
        lambda_2=lam, lower=lam / 2.0, upper=float(np.sqrt(2.0 * lam))
    )


def sweep_conductance(g: Graph, order: Sequence[int]) -> float:
    """Best conductance over all prefixes of a vertex ordering.

    The classical *sweep cut*: with ``order`` the sorted normalised
    Fiedler vector, the best prefix is guaranteed to satisfy the Cheeger
    upper bound — which makes this the constructive half of the theorem
    and a cheap conductance partitioner in its own right.  The total
    volume sums the degrees left to right, as :func:`conductance` does.
    """
    n = g.num_vertices
    if sorted(order) != list(range(n)):
        raise SpectralError("order must be a permutation of the vertices")
    if n < 2:
        raise SpectralError("need at least 2 vertices")
    members = set()
    degrees = g.degrees()
    total_volume = reduce(add, degrees, 0)
    cut = 0.0
    vol = 0.0
    best = float("inf")
    order = list(order)
    for v in order[:-1]:
        members.add(v)
        vol += degrees[v]
        for u, w in g.neighbor_weights(v):
            cut += w if u not in members else -w
        denominator = min(vol, total_volume - vol)
        if denominator > 0:
            best = min(best, cut / denominator)
    return best
