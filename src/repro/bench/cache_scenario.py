"""Cached-vs-cold serving benchmark scenario.

Measures what the :mod:`repro.service` cache actually buys: one circuit
is served twice through a fresh :class:`~repro.service.engine.
PartitionEngine` — a *cold* request that runs the full pipeline and a
*warm* repeat of the identical request.  Both serves run under the
observability layer, so the scenario can verify (not just assert by
timing) that the warm serve skipped the compute phases entirely: the
cold trace contains intersection-build / eigensolve / sweep spans, the
warm trace contains none of them, and the engine counters show exactly
one miss followed by one hit.

``python -m repro.bench --cache-scenario`` is the CLI front end; the
result is a schema-3 bench payload of kind ``cache``
(``BENCH_cache.json``, :mod:`repro.obs.diff`).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs.diff import (
    EXACT,
    NOISY,
    check,
    histogram_metrics,
    make_payload,
    metric,
)
from .suite import build_circuit

__all__ = ["COMPUTE_SPAN_PREFIXES", "run_cache_scenario"]

#: Span-name roots that mean "the partitioner actually computed": the
#: intersection-graph build, any eigensolve, the split sweeps, and the
#: iterative algorithms' own phases.  A cached serve must produce none
#: of these (only ``service.*`` spans).
COMPUTE_SPAN_PREFIXES = (
    "intersection",
    "spectral",
    "splits",
    "igmatch",
    "eig1",
    "fm",
    "rcut",
    "kl",
    "anneal",
    "multilevel",
)


def _compute_spans(phases: Dict[str, Any]) -> Sequence[str]:
    return sorted(
        name
        for name in phases
        if any(
            name == root or name.startswith(root + ".")
            for root in COMPUTE_SPAN_PREFIXES
        )
    )


def _observed_serve(
    engine, h, request, serve: str
) -> Tuple[Any, List[str], List[Dict[str, Any]]]:
    """One serve under a fresh obs session: the served result, the
    compute spans it ran, and its metrics (label ``serve``)."""
    labels = {"serve": serve}
    start = time.perf_counter()
    with obs.enabled():
        served = engine.partition(h, request)
        wall = time.perf_counter() - start
        totals = obs.flatten_totals()
        service_counters = obs.counters("service.")
    result = served.result
    metrics = [
        metric("wall_s", round(wall, 6), "s", NOISY, labels),
        metric("seconds", result.elapsed_seconds, "s", NOISY, labels),
        metric("nets_cut", result.nets_cut, "count", EXACT, labels),
        metric("ratio_cut", result.ratio_cut, "", EXACT, labels),
    ]
    metrics += [
        metric(key, value, "count", EXACT, labels)
        for key, value in service_counters.items()
    ]
    for name, (seconds, count) in sorted(totals.items()):
        phase = dict(labels, phase=name)
        metrics.append(metric("phase.count", count, "count", EXACT, phase))
        metrics.append(metric("phase.seconds", round(seconds, 6), "s", NOISY, phase))
    return served, list(_compute_spans(totals)), metrics


def run_cache_scenario(
    name: str = "Test05",
    seed: int = 0,
    scale: float = 1.0,
    algorithm: str = "ig-match",
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Serve ``name`` cold then warm through a fresh engine.

    Returns a payload with both serves' metrics (label ``serve``: wall
    time, cut, service counters, phase totals), the engine's latency
    histograms, the speedup, and five checks: the warm serve hit the
    cache, it ran **zero** compute-phase spans while the cold one ran
    some, its deterministic result fields are byte-identical to the
    cold serve's, and the engine counted one miss then one hit.
    """
    from ..service import PartitionEngine, PartitionRequest, ResultCache
    from ..service.engine import result_to_payload

    h = build_circuit(name, seed=seed, scale=scale)
    engine = PartitionEngine(
        cache=ResultCache(disk_dir=cache_dir, use_disk=cache_dir is not None)
    )
    request = PartitionRequest(algorithm=algorithm, seed=seed)
    cold, cold_spans, cold_metrics = _observed_serve(engine, h, request, "cold")
    warm, warm_spans, warm_metrics = _observed_serve(engine, h, request, "warm")
    metrics = [
        metric("modules", h.num_modules, "count"),
        metric("nets", h.num_nets, "count"),
    ]
    metrics += cold_metrics + warm_metrics
    for hist_name in (
        "service.request.duration_seconds",
        "service.cache.lookup.duration_seconds",
        "service.compute.duration_seconds",
    ):
        merged = engine.hists.merged(hist_name)
        if merged is not None and merged.count:
            metrics += histogram_metrics(hist_name, merged.snapshot(), EXACT)
    walls = {m["labels"]["serve"]: m["value"] for m in metrics if m["name"] == "wall_s"}
    if walls["warm"] > 0:
        metrics.append(
            metric("speedup", round(walls["cold"] / walls["warm"], 1), "x", NOISY)
        )

    cold_payload = result_to_payload(cold.result)
    warm_payload = result_to_payload(warm.result)
    cold_payload.pop("elapsed_seconds", None)
    warm_payload.pop("elapsed_seconds", None)
    stats = engine.stats
    checks = [
        check(
            "warm_hit",
            warm.cached and not cold.cached,
            f"cold source={cold.source} cached={cold.cached}; "
            f"warm source={warm.source} cached={warm.cached}",
        ),
        check(
            "warm_skipped_compute",
            not warm_spans,
            "warm compute spans: " + (", ".join(warm_spans) or "none"),
        ),
        check(
            "cold_ran_compute",
            bool(cold_spans),
            "cold compute spans: " + (", ".join(cold_spans) or "none"),
        ),
        check("results_identical", cold_payload == warm_payload),
        check(
            "counters_one_miss_one_hit",
            stats["service.cache.miss"] == 1
            and stats["service.cache.hit"] == 1
            and stats["service.computed"] == 1,
            f"miss={stats['service.cache.miss']} "
            f"hit={stats['service.cache.hit']} "
            f"computed={stats['service.computed']}",
        ),
    ]
    return make_payload(
        "cache",
        {"circuit": name, "algorithm": algorithm, "seed": seed, "scale": scale},
        metrics,
        checks,
    )
