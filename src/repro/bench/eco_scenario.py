"""Warm-vs-cold ECO (incremental partitioning) benchmark scenario.

Measures what :mod:`repro.delta` actually buys in serving terms: a base
circuit is served cold through a fresh
:class:`~repro.service.engine.PartitionEngine` (seeding a warm-start
session), then a chain of random engineering change orders is served
twice per edit — warm through ``POST /partition/delta`` semantics
(:meth:`~repro.service.engine.PartitionEngine.partition_delta`) and
cold by running the full partitioner on the edited hypergraph from
scratch.  The scenario verifies, not just times:

* every delta request took the warm engine path (the
  ``service.delta.warm`` counter equals the number of edits served);
* warm cut quality is **no worse** than the cold recompute's on every
  edit;
* the warm chain is at least ``min_speedup`` times faster than the
  cold recomputes in total wall time.

``python -m repro.bench --eco-scenario`` is the CLI front end; the
result is a schema-3 bench payload of kind ``eco`` (``BENCH_eco.json``,
:mod:`repro.obs.diff`) whose checks are the three contracts above plus
two session checks, and CI gates on its ``ok``.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Dict, List

from ..obs.diff import EXACT, NOISY, check, make_payload, metric
from .suite import build_circuit

__all__ = ["run_eco_scenario"]


def run_eco_scenario(
    name: str = "Test05",
    seed: int = 0,
    scale: float = 0.4,
    algorithm: str = "ig-match",
    deltas: int = 5,
    delta_seed: int = 1,
    min_speedup: float = 5.0,
) -> Dict[str, Any]:
    """Serve ``deltas`` chained ECO edits warm and cold; verify both
    the quality contract and the speedup floor.

    Metrics: the base serve (label ``serve=base``), each edit's warm
    and cold serve (labels ``edit``, ``serve``: wall time, cut,
    splits evaluated) and edited size, the chain totals and speedup,
    and the engine's delta and session counters.  The checks' ``ok``
    is the scenario's pass/fail verdict.
    """
    from ..delta import dumps_delta, random_delta
    from ..service.engine import (
        PartitionEngine,
        PartitionRequest,
        run_partitioner,
    )

    h = build_circuit(name, seed=seed, scale=scale)
    engine = PartitionEngine()
    request = PartitionRequest(algorithm=algorithm, seed=seed)

    def served(result: Any, wall: float, labels: Dict[str, Any]) -> List[Dict[str, Any]]:
        return [
            metric("wall_s", round(wall, 6), "s", NOISY, labels),
            metric("nets_cut", result.nets_cut, "count", EXACT, labels),
            metric("ratio_cut", result.ratio_cut, "", EXACT, labels),
        ]

    start = time.perf_counter()
    base_served = engine.partition(h, request)
    metrics = [
        metric("modules", h.num_modules, "count"),
        metric("nets", h.num_nets, "count"),
    ]
    metrics += served(
        base_served.result, time.perf_counter() - start, {"serve": "base"}
    )

    rng = random.Random(delta_seed)
    current = h
    fingerprint = base_served.fingerprint
    warm_total = 0.0
    cold_total = 0.0
    better_or_equal = 0
    warm_sources = 0
    for index in range(deltas):
        # module_churn would routinely strand a just-added module with
        # no nets, collapsing the optimum to a degenerate ratio-0 cut;
        # net-level edits keep the benchmark measuring real re-solves.
        delta = random_delta(current, rng, module_churn=False)
        doc = json.loads(dumps_delta(delta))
        edited = delta.apply(current)

        start = time.perf_counter()
        warm = engine.partition_delta(fingerprint, doc, request)
        warm_wall = time.perf_counter() - start

        start = time.perf_counter()
        cold = run_partitioner(edited, request)
        cold_wall = time.perf_counter() - start

        warm_total += warm_wall
        cold_total += cold_wall
        better_or_equal += warm.result.ratio_cut <= cold.ratio_cut
        warm_sources += warm.source == "delta-warm"
        edit = {"edit": index}
        metrics += [
            metric("modules", edited.num_modules, "count", EXACT, edit),
            metric("nets", edited.num_nets, "count", EXACT, edit),
        ]
        metrics += served(warm.result, warm_wall, dict(edit, serve="warm"))
        metrics += served(cold, cold_wall, dict(edit, serve="cold"))
        splits = warm.result.details.get("splits_evaluated")
        if splits is not None:
            metrics.append(
                metric(
                    "splits_evaluated", splits, "count", EXACT,
                    dict(edit, serve="warm"),
                )
            )
        fingerprint = warm.fingerprint
        current = edited

    speedup = round(cold_total / warm_total, 1) if warm_total > 0 else None
    metrics += [
        metric("chain_wall_s", round(warm_total, 6), "s", NOISY, {"serve": "warm"}),
        metric("chain_wall_s", round(cold_total, 6), "s", NOISY, {"serve": "cold"}),
    ]
    if speedup is not None:
        metrics.append(metric("speedup", speedup, "x", NOISY))
    stats = engine.stats
    session_stats = engine.sessions.stats_dict()
    metrics += [
        metric(key, value, "count")
        for key, value in sorted(stats.items())
        if key.startswith("service.delta.")
    ]
    metrics += [
        metric(key, value, "bytes", NOISY)
        if key == "service.session.bytes"
        else metric(key, value, "count")
        for key, value in sorted(session_stats.items())
    ]
    chained = fingerprint in engine.sessions
    checks = [
        check(
            "all_edits_served_warm",
            warm_sources == deltas and stats["service.delta.warm"] == deltas,
            f"{warm_sources} of {deltas} edits served delta-warm",
        ),
        check(
            "quality_no_worse_than_cold",
            better_or_equal == deltas,
            f"warm ratio cut <= cold on {better_or_equal} of {deltas} edits",
        ),
        check(
            "speedup_at_least_min",
            speedup is not None and speedup >= min_speedup,
            f"warm chain {speedup}x faster than cold; floor {min_speedup}x",
        ),
        check(
            "no_base_misses",
            stats["service.delta.base_miss"] == 0,
            f"{stats['service.delta.base_miss']} base misses",
        ),
        check(
            "sessions_chained",
            chained and session_stats["service.session.entries"] >= 1,
            f"last edit's session live: {chained}; "
            f"{session_stats['service.session.entries']} session entries",
        ),
    ]
    return make_payload(
        "eco",
        {
            "circuit": name,
            "algorithm": algorithm,
            "seed": seed,
            "scale": scale,
            "deltas": deltas,
            "delta_seed": delta_seed,
            "min_speedup": min_speedup,
        },
        metrics,
        checks,
    )
