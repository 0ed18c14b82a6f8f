"""Warm-started partitioning across a netlist delta.

The ECO serving core: given the payload a session served for the base
hypergraph and a validated :class:`~repro.delta.model.DeltaApplication`,
produce the edited hypergraph's partition while reusing what the delta
did not touch:

* **IG-Match** — the intersection graph of the edited hypergraph is
  built cold (the vectorised build is cheaper than patching the base
  graph's) and re-ordered; the split sweep is restricted to a window
  around the payload's best split rank, jump-starting the incremental
  matcher at the window's first split
  (:class:`~repro.partitioning.SweepWarmStart`).  Every evaluation
  inside the window is identical to the cold sweep's at the same rank.
  A session with no IG-Match payload (served by another algorithm)
  runs cold, and the cold run's payload centres the next delta's
  window.
* **FM** — the previous sides map through the delta (new modules join
  the lighter side), and :func:`~repro.partitioning.fm_bipartition`
  refines from them on the edited hypergraph.  A session with no FM
  answer (served by another algorithm) has no sides to map, so it runs
  cold.
* anything else falls back to a cold
  :func:`~repro.service.run_partitioner` run on the edited hypergraph.

:func:`warm_partition` returns the result together with its payload,
which the serving session stores for the edited hypergraph, so a
session can chain deltas indefinitely.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from ..errors import PartitionError
from ..intersection import graph_from_edge_state
# perfbench/layers.py times the warm path's edge-state build under
# this name (its ``delta.igraph_update_s``).
from ..intersection import intersection_edge_state as updated_edge_state
from ..obs import incr, span
from ..parallel import ParallelConfig
from ..partitioning import (
    FMConfig,
    IGMatchConfig,
    PartitionResult,
    SweepWarmStart,
    fm_bipartition,
    ig_match_sweep,
)
from ..spectral import spectral_ordering
from .model import DeltaApplication

__all__ = ["warm_partition"]

#: Half-width of the warm sweep window, as evaluated split ranks on
#: each side of the previous best rank.  Small ECO edits move the best
#: split by a handful of ranks at most; the floor keeps tiny netlists
#: sweeping everything (where warm == cold exactly).
WARM_WINDOW = 64


def _map_sides(
    sides: List[int],
    application: DeltaApplication,
) -> List[int]:
    """Previous sides in edited-module indices; each added module joins
    the side with less mapped area (deterministic, ascending index)."""
    edited = application.hypergraph
    mapped = [0] * edited.num_modules
    side_area = [0.0, 0.0]
    for v, target in enumerate(application.module_map):
        if target is not None:
            s = sides[v]
            mapped[target] = s
            side_area[s] += edited.module_area(target)
    for v in application.added_modules:
        lighter = 0 if side_area[0] <= side_area[1] else 1
        mapped[v] = lighter
        side_area[lighter] += edited.module_area(v)
    return mapped


def _warm_ig_match(
    best_rank: int,
    application: DeltaApplication,
    seed: int,
    split_stride: int,
) -> PartitionResult:
    h2 = application.hypergraph
    config = IGMatchConfig(seed=seed, split_stride=split_stride)
    start = time.perf_counter()
    with span(
        "delta.warm.igmatch", modules=h2.num_modules, nets=h2.num_nets
    ) as sp:
        state = updated_edge_state(h2, config.weighting)
        graph = graph_from_edge_state(h2.num_nets, state)
        order = spectral_ordering(graph, seed=config.seed)

        centre = min(best_rank, h2.num_nets - 1)
        warm = SweepWarmStart(
            lo=max(1, centre - WARM_WINDOW),
            hi=min(h2.num_nets - 1, centre + WARM_WINDOW),
        )
        evaluations, partition = ig_match_sweep(
            h2, config, order=order, graph=graph, warm=warm
        )
        if partition is None:
            raise PartitionError(
                "warm IG-Match found no feasible completion in the "
                "sweep window"
            )
        best = min(evaluations, key=lambda e: (e.ratio_cut, e.rank))
        sp.set(window_lo=warm.lo, window_hi=warm.hi, best_rank=best.rank)
    elapsed = time.perf_counter() - start
    incr("delta.warm.igmatch")
    return PartitionResult(
        algorithm="IG-Match",
        partition=partition,
        elapsed_seconds=elapsed,
        details={
            "best_rank": best.rank,
            "matching_bound": best.matching_size,
            "splits_evaluated": len(evaluations),
            "weighting": config.weighting,
            "backend": "scipy",  # eigsh; part of canonical_result_bytes
            "recursive_depth": 0,
            "orderings_tried": 1,
            "best_ordering": 0,
            "warm": True,
            "window_lo": warm.lo,
            "window_hi": warm.hi,
        },
    )


def _warm_fm(
    sides: List[int],
    application: DeltaApplication,
    seed: int,
) -> PartitionResult:
    h2 = application.hypergraph
    with span("delta.warm.fm", modules=h2.num_modules, nets=h2.num_nets):
        result = fm_bipartition(
            h2,
            FMConfig(seed=seed),
            initial_sides=_map_sides(sides, application),
        )
    result.details["warm"] = True
    incr("delta.warm.fm")
    return result


def warm_partition(
    payload: Dict[str, Any],
    application: DeltaApplication,
    request: Any,
    parallel: Optional[ParallelConfig] = None,
) -> Tuple[PartitionResult, Dict[str, Any], bool]:
    """Partition the edited hypergraph, reusing the payload a session
    served for the base (``{}`` when it holds none for this request).

    Returns ``(result, fresh_payload, warm)``: the result, its payload
    (what the session stores for the edited hypergraph), and whether a
    warm engine path actually ran (``False`` means the algorithm fell
    back to a cold run on the edited hypergraph).
    """
    from ..service.engine import result_to_payload, run_partitioner

    h2 = application.hypergraph
    viable = h2.num_modules >= 2 and h2.num_nets >= 2
    # A session holds no payload for an algorithm that did not serve it.
    best_rank = payload.get("details", {}).get("best_rank")
    if viable and request.algorithm == "ig-match" and best_rank is not None:
        result = _warm_ig_match(
            best_rank, application,
            seed=request.seed, split_stride=request.split_stride,
        )
        return result, result_to_payload(result), True
    if viable and request.algorithm == "fm" and "sides" in payload:
        result = _warm_fm(payload["sides"], application, seed=request.seed)
        return result, result_to_payload(result), True

    result = run_partitioner(h2, request, parallel=parallel)
    return result, result_to_payload(result), False
