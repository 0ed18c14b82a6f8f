"""Edge weighting schemes for the intersection graph.

The paper's weighting (Section 2.2) for nets ``s_a``, ``s_b`` sharing
modules ``v_1 .. v_q`` is

.. math::

    A'_{ab} = \\sum_{k=1}^{q} \\frac{1}{d_k - 1}
              \\left( \\frac{1}{|s_a|} + \\frac{1}{|s_b|} \\right)

where ``d_k`` is the number of nets incident to shared module ``v_k``.  A
shared module necessarily has ``d_k >= 2``, so the formula is well defined.
The design intent: overlaps between *small* nets matter more, and a module
shared among many nets dilutes each pairwise overlap.

The paper reports that several alternative weightings give "extremely
similar, high-quality" results — the robustness claim tested by ablation
A1.  The alternatives implemented here are the natural candidates: unit
weight, raw overlap count, and Jaccard similarity.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..errors import ReproError
from ..hypergraph import Hypergraph

__all__ = [
    "paper_weight",
    "unit_weight",
    "overlap_weight",
    "jaccard_weight",
    "get_weighting",
    "available_weightings",
]

#: A weighting receives (hypergraph, net_a, net_b, shared_modules) and
#: returns the edge weight A'_ab.
Weighting = Callable[[Hypergraph, int, int, Sequence[int]], float]


def paper_weight(
    h: Hypergraph, net_a: int, net_b: int, shared: Sequence[int]
) -> float:
    """The weighting of Section 2.2 (see module docstring)."""
    size_term = 1.0 / h.net_size(net_a) + 1.0 / h.net_size(net_b)
    total = 0.0
    for module in shared:
        degree = h.module_degree(module)
        if degree < 2:
            raise ReproError(
                f"module {module} is claimed shared by nets {net_a},{net_b} "
                f"but has degree {degree}"
            )
        total += size_term / (degree - 1)
    return total


def unit_weight(
    h: Hypergraph, net_a: int, net_b: int, shared: Sequence[int]
) -> float:
    """1.0 whenever the nets intersect at all."""
    return 1.0


def overlap_weight(
    h: Hypergraph, net_a: int, net_b: int, shared: Sequence[int]
) -> float:
    """The number of shared modules ``q``."""
    return float(len(shared))


def jaccard_weight(
    h: Hypergraph, net_a: int, net_b: int, shared: Sequence[int]
) -> float:
    """Jaccard similarity ``|a ∩ b| / |a ∪ b|`` of the two pin sets."""
    union = h.net_size(net_a) + h.net_size(net_b) - len(shared)
    return len(shared) / union


_WEIGHTINGS: Dict[str, Weighting] = {
    "paper": paper_weight,
    "unit": unit_weight,
    "overlap": overlap_weight,
    "jaccard": jaccard_weight,
}


def get_weighting(name: str) -> Weighting:
    """Look up a weighting scheme by name (anything else raises
    :class:`~repro.errors.ReproError`)."""
    try:
        return _WEIGHTINGS[name]
    except (KeyError, TypeError):
        raise ReproError(
            f"unknown weighting {name!r}; available: {sorted(_WEIGHTINGS)}"
        ) from None


def available_weightings() -> List[str]:
    """Names of all weighting schemes, sorted."""
    return sorted(_WEIGHTINGS)
