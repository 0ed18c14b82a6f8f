"""Warm-started partitioning across a netlist delta.

The ECO serving core: given the artifacts saved when a base hypergraph
was partitioned (the served payload, and the best split rank and
matching for IG-Match) and a validated
:class:`~repro.delta.model.DeltaApplication`, produce the edited
hypergraph's partition while reusing what the delta did not touch:

* **IG-Match** — the intersection graph of the edited hypergraph is
  built cold (the vectorised build is cheaper than patching the base
  graph's) and re-ordered; the split sweep is restricted to a window
  around the previous best rank, jump-starting the incremental matcher
  from the previous matching
  (:class:`~repro.partitioning.SweepWarmStart`).  Every evaluation
  inside the window is identical to the cold sweep's at the same rank.
  A session with no best rank (served by another algorithm, or seeded
  from a result-cache hit) runs cold, and the cold run seeds the next
  delta's window.
* **FM** — the previous sides map through the delta (new modules join
  the lighter side), and a fresh :class:`~repro.partitioning.FMEngine`
  on the edited hypergraph refines from them with the normal pass loop.
  A session with no FM answer (served by another algorithm) has no
  sides to map, so it runs cold.
* anything else falls back to a cold
  :func:`~repro.service.run_partitioner` run on the edited hypergraph.

:func:`warm_partition` returns the result together with the refreshed
:class:`SessionArtifacts` for the edited hypergraph, so a serving
session can chain deltas indefinitely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
    FMEngine,
    IGMatchConfig,
    Partition,
    PartitionResult,
    SweepWarmStart,
    ig_match_sweep,
)
from ..partitioning.fm import fm_refine_engine
from ..spectral import spectral_ordering
from .model import DeltaApplication

__all__ = [
    "SessionArtifacts",
    "seed_artifacts",
    "warm_partition",
]

#: Half-width of the warm sweep window, as evaluated split ranks on
#: each side of the previous best rank.  Small ECO edits move the best
#: split by a handful of ranks at most; the floor keeps tiny netlists
#: sweeping everything (where warm == cold exactly).
WARM_WINDOW = 64


@dataclass
class SessionArtifacts:
    """Everything a serving session stores to warm-start the next delta.

    ``payload`` is the served result payload (the session's prior
    answer, returned verbatim on a no-op delta; FM maps its sides).
    ``best_rank`` and ``matching`` are IG-Match's warm state.  A
    session seeded from a result-cache hit holds the payload alone, so
    an IG-Match delta on it runs cold.
    """

    payload: Dict[str, Any]
    #: Best split rank of the previous sweep (window centre).
    best_rank: Optional[int] = None
    #: Matching pairs ``(net, net)`` at the previous best split.
    matching: Tuple[Tuple[int, int], ...] = ()

    def estimated_bytes(self) -> int:
        """Rough retained size, for the session store's accounting."""
        total = 256
        sides = self.payload.get("sides")
        if sides is not None:
            total += 8 * len(sides)
        total += 16 * len(self.matching)
        return total


def seed_artifacts(
    payload: Dict[str, Any],
    capture: Optional[Dict[str, Any]] = None,
) -> SessionArtifacts:
    """Build full session artifacts after a cold compute.

    ``capture`` is the dict ``run_partitioner(..., capture=...)``
    filled: IG-Match's best rank and matching pairs, nothing for the
    other algorithms.  FM needs only the payload's sides.
    """
    capture = capture or {}
    return SessionArtifacts(
        payload=payload,
        best_rank=capture.get("best_rank"),
        matching=tuple(capture.get("matching", ())),
    )


def _map_matching(
    matching: Tuple[Tuple[int, int], ...],
    application: DeltaApplication,
) -> Tuple[Tuple[int, int], ...]:
    """Previous matching pairs in edited-net indices (dropping pairs
    that touch a removed net; the jump-start repair re-grows those)."""
    net_map = application.net_map
    mapped = []
    for u, v in matching:
        mu, mv = net_map[u], net_map[v]
        if mu is not None and mv is not None:
            mapped.append((mu, mv))
    return tuple(mapped)


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
    artifacts: SessionArtifacts,
    application: DeltaApplication,
    seed: int,
    split_stride: int,
) -> Tuple[PartitionResult, SessionArtifacts]:
    h2 = application.hypergraph
    config = IGMatchConfig(seed=seed, split_stride=split_stride)
    start = time.perf_counter()
    with span(
        "delta.warm.igmatch", modules=h2.num_modules, nets=h2.num_nets
    ) as sp:
        state = updated_edge_state(h2, config.weighting)
        graph = graph_from_edge_state(h2.num_nets, state)
        order = spectral_ordering(graph, seed=config.seed)

        centre = min(artifacts.best_rank, h2.num_nets - 1)
        warm = SweepWarmStart(
            lo=max(1, centre - WARM_WINDOW),
            hi=min(h2.num_nets - 1, centre + WARM_WINDOW),
            matching_seed=_map_matching(artifacts.matching, application),
        )
        capture: Dict[str, Any] = {}
        evaluations, partition = ig_match_sweep(
            h2, config, order=order, graph=graph,
            warm=warm, capture=capture,
        )
        if partition is None:
            raise PartitionError(
                "warm IG-Match found no feasible completion in the "
                "sweep window"
            )
        best = min(evaluations, key=lambda e: (e.ratio_cut, e.rank))
        sp.set(window_lo=warm.lo, window_hi=warm.hi, best_rank=best.rank)
    elapsed = time.perf_counter() - start
    result = PartitionResult(
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
    incr("delta.warm.igmatch")
    # The caller installs the served payload.
    return result, seed_artifacts({}, capture)


def _warm_fm(
    artifacts: SessionArtifacts,
    application: DeltaApplication,
    seed: int,
) -> Tuple[PartitionResult, SessionArtifacts]:
    h2 = application.hypergraph
    config = FMConfig(seed=seed)
    start = time.perf_counter()
    with span("delta.warm.fm", modules=h2.num_modules, nets=h2.num_nets):
        sides2 = _map_sides(list(artifacts.payload["sides"]), application)
        final_sides, _, passes = fm_refine_engine(
            FMEngine(h2, sides2), config
        )
    elapsed = time.perf_counter() - start
    result = PartitionResult(
        algorithm="FM",
        partition=Partition(h2, final_sides),
        elapsed_seconds=elapsed,
        details={
            "passes": passes,
            "balance_tolerance": config.balance_tolerance,
            "seed": config.seed,
            "lookahead": config.lookahead,
            "starts": 1,
            "warm": True,
        },
    )
    incr("delta.warm.fm")
    return result, SessionArtifacts(payload={})


def warm_partition(
    artifacts: SessionArtifacts,
    application: DeltaApplication,
    request: Any,
    parallel: Optional[ParallelConfig] = None,
) -> Tuple[PartitionResult, SessionArtifacts, bool]:
    """Partition the edited hypergraph, reusing the session's artifacts.

    Returns ``(result, fresh_artifacts, warm)`` where ``warm`` records
    whether a warm engine path actually ran (``False`` means the
    algorithm fell back to a cold run on the edited hypergraph).  The
    returned artifacts describe the *edited* hypergraph; the caller
    installs the served payload into them and stores them under the
    edited fingerprint.
    """
    h2 = application.hypergraph
    viable = h2.num_modules >= 2 and h2.num_nets >= 2
    # A session holds no artifacts for an algorithm that did not serve
    # it, and no IG-Match window centre when it came from a cache hit.
    has_rank = artifacts.best_rank is not None
    if viable and request.algorithm == "ig-match" and has_rank:
        result, fresh = _warm_ig_match(
            artifacts, application,
            seed=request.seed, split_stride=request.split_stride,
        )
        return result, fresh, True
    has_sides = "sides" in artifacts.payload
    if viable and request.algorithm == "fm" and has_sides:
        result, fresh = _warm_fm(artifacts, application, seed=request.seed)
        return result, fresh, True

    from ..service.engine import run_partitioner

    capture: Dict[str, Any] = {}
    result = run_partitioner(
        h2, request, parallel=parallel, capture=capture
    )
    return result, seed_artifacts({}, capture), False
