"""IG-Vote (EIG1-IG): the voting completion heuristic of Hagen–Kahng.

Appendix B of the paper.  Shares IG-Match's first stage — the sorted
second eigenvector of the intersection graph — but completes the module
partition by *voting*: each net exerts weight ``1/|s|`` on its modules,
and a module crosses the partition once at least half of its total
incident net weight has crossed.  The sweep is run forward (nets peel off
U into W) and backward, and the best ratio cut among the up-to-``2(m-1)``
generated partitions is returned.

IG-Match was shown to dominate this heuristic (Table 3); IG-Vote is
reproduced here as the paper's closest baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..intersection import intersection_graph
from ..spectral import spectral_ordering
from .metrics import ratio_cut_cost
from .partition import Partition, PartitionResult

__all__ = ["IGVoteConfig", "ig_vote"]

_EPS = 1e-12


@dataclass(frozen=True)
class IGVoteConfig:
    """Weighting, eigensolver seed and vote threshold (stage 1 matches
    IG-Match's)."""

    weighting: str = "paper"
    seed: int = 0
    threshold: float = 0.5


def _vote_pass(
    h: Hypergraph,
    order: Sequence[int],
    threshold: float,
) -> Tuple[float, int, Optional[List[int]], int]:
    """One direction of the voting sweep.

    All modules start on side 0; nets are processed in ``order`` and vote
    their modules over to side 1.  Returns the best
    ``(ratio_cut, nets_cut, sides_snapshot, step)`` seen.
    """
    n = h.num_modules
    sizes = h.net_sizes()

    total_weight = [0.0] * n
    for net, pins in h.iter_nets():
        if not pins:
            continue
        share = 1.0 / sizes[net]
        for pin in pins:
            total_weight[pin] += share

    side = [0] * n
    moved_weight = [0.0] * n
    pins_moved = [0] * h.num_nets  # pins of each net on side 1
    nets_cut = 0
    moved_count = 0

    best_ratio = float("inf")
    best_cut = 0
    best_sides: Optional[List[int]] = None
    best_step = -1

    def move_module(module: int) -> None:
        nonlocal nets_cut, moved_count
        side[module] = 1
        moved_count += 1
        for incident in h.nets_of(module):
            count = pins_moved[incident]
            size = sizes[incident]
            was_cut = 0 < count < size
            count += 1
            pins_moved[incident] = count
            is_cut = 0 < count < size
            nets_cut += int(is_cut) - int(was_cut)

    for step, net in enumerate(order):
        pins = h.pins(net)
        if pins:
            share = 1.0 / sizes[net]
            for pin in pins:
                moved_weight[pin] += share
                if (
                    side[pin] == 0
                    and moved_weight[pin]
                    >= threshold * total_weight[pin] - _EPS
                ):
                    move_module(pin)
        if 0 < moved_count < n:
            ratio = ratio_cut_cost(nets_cut, n - moved_count, moved_count)
            if ratio < best_ratio:
                best_ratio = ratio
                best_cut = nets_cut
                best_sides = list(side)
                best_step = step
    return best_ratio, best_cut, best_sides, best_step


def ig_vote(
    h: Hypergraph,
    config: IGVoteConfig = IGVoteConfig(),
    order: Optional[Sequence[int]] = None,
) -> PartitionResult:
    """Partition ``h`` with the IG-Vote heuristic (Appendix B).

    ``order`` overrides the spectral net ordering, letting ablations feed
    the identical ordering to IG-Vote and IG-Match.
    """
    if h.num_modules < 2:
        raise PartitionError("IG-Vote needs at least 2 modules")
    if h.num_nets < 1:
        raise PartitionError("IG-Vote needs at least 1 net")

    start = time.perf_counter()
    if order is None:
        graph = intersection_graph(h, config.weighting)
        order = spectral_ordering(graph, seed=config.seed)
    elif sorted(order) != list(range(h.num_nets)):
        raise PartitionError("order must be a permutation of net indices")

    forward = _vote_pass(h, order, config.threshold)
    backward = _vote_pass(h, list(reversed(order)), config.threshold)
    direction = "forward" if forward[0] <= backward[0] else "backward"
    ratio, nets_cut, sides, step = (
        forward if direction == "forward" else backward
    )
    elapsed = time.perf_counter() - start

    if sides is None:
        raise PartitionError(
            "IG-Vote produced no feasible partition (all modules voted "
            "to one side at every step)"
        )
    # Side 1 collects the swept nets' modules; report U as side 0.
    partition = Partition(h, sides)
    return PartitionResult(
        algorithm="IG-Vote",
        partition=partition,
        elapsed_seconds=elapsed,
        details={
            "direction": direction,
            "best_step": step,
            "threshold": config.threshold,
            "weighting": config.weighting,
        },
    )
