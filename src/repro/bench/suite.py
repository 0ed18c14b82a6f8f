"""The full benchmark suite: one synthetic circuit per paper benchmark.

:func:`build_suite` realises all nine circuits of Tables 2/3 (optionally
scaled down), caching generated hypergraphs in-process so experiments and
pytest benchmarks share instances.

:func:`run_observed_suite` runs a partitioner over the suite with the
:mod:`repro.obs` layer enabled and returns the bench payload of kind
``obs`` (schema 3, :mod:`repro.obs.diff`): per circuit, the cut, the
work counters and phase counts as exact metrics, the wall clocks as
noisy ones, and the span and curve events as traces — the perf
trajectory that optimisation PRs diff against.  ``python -m
repro.bench`` is the CLI front end and writes it to ``BENCH_obs.json``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..hypergraph import Hypergraph
from ..obs.diff import EXACT, NOISY, make_payload, metric
from ..parallel import ParallelConfig, pstarmap
from .generator import generate_from_spec
from .specs import BENCHMARKS, BenchmarkSpec, get_spec

__all__ = [
    "build_circuit",
    "build_suite",
    "planted_sides",
    "run_observed_suite",
]


@lru_cache(maxsize=64)
def _cached_circuit(name: str, seed: int, scale: float) -> Hypergraph:
    return generate_from_spec(get_spec(name), seed=seed, scale=scale)


def build_circuit(
    name: str, seed: int = 0, scale: float = 1.0
) -> Hypergraph:
    """One benchmark circuit by name (cached per (name, seed, scale))."""
    return _cached_circuit(name, seed, float(scale))


def build_suite(
    names: Optional[Sequence[str]] = None,
    seed: int = 0,
    scale: float = 1.0,
) -> Dict[str, Hypergraph]:
    """All (or the named) benchmark circuits, keyed by name."""
    if names is None:
        names = [spec.name for spec in BENCHMARKS]
    return {name: build_circuit(name, seed=seed, scale=scale) for name in names}


#: Stored convergence curves are downsampled to at most this many
#: samples per series — plenty for rendering, and it keeps a checked-in
#: baseline compact.  Traces (``--trace-json``) always carry the full
#: curve.
_CURVE_SAMPLE_LIMIT = 240


def _is_curve_event(event: Dict[str, Any]) -> bool:
    """Point events carrying at least one numeric series."""
    return any(
        isinstance(v, list)
        and v
        and all(isinstance(e, (int, float)) for e in v)
        for v in event.values()
    )


def _downsample_curve(
    event: Dict[str, Any], limit: int = _CURVE_SAMPLE_LIMIT
) -> Dict[str, Any]:
    """Deterministically thin every series of a curve event to
    ``limit`` samples, always keeping the final sample and (when a
    ``ratio_cuts`` series is present) the best split."""
    lengths = {
        len(v) for v in event.values() if isinstance(v, list)
    }
    if not lengths or max(lengths) <= limit:
        return event
    n = max(lengths)
    step = -(-n // limit)  # ceil division
    keep = set(range(0, n, step))
    keep.add(n - 1)
    ratio = event.get("ratio_cuts")
    if isinstance(ratio, list) and ratio:
        keep.add(min(range(len(ratio)), key=ratio.__getitem__))
    indices = sorted(i for i in keep if i < n)
    sampled = dict(event)
    for key, value in event.items():
        if isinstance(value, list) and len(value) == n:
            sampled[key] = [value[i] for i in indices]
    return sampled


def _circuit_task(
    name: str, seed: int, scale: float, algorithm: str,
    memprof: bool = False,
) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Partition one benchmark circuit under an isolated obs session;
    returns its metrics and its trace.

    Module-level (picklable) so :func:`run_observed_suite` can fan
    circuits out over a process pool; the isolated obs state keeps
    concurrently running circuits from interleaving their traces, and
    gives each circuit the same fresh-counters view a serial run had.
    """
    # Imported lazily: repro.bench loads before repro.partitioning in
    # the package __init__, so a module-level import would be circular.
    from .. import obs
    from ..cli import _run_algorithm

    h = build_circuit(name, seed=seed, scale=scale)
    labels = {"circuit": name}
    sink = obs.MemorySink()
    with obs.isolated():
        with obs.enabled(sink=sink):
            if memprof:
                obs.enable_memprof()
            result = _run_algorithm(
                h, algorithm, seed=seed, restarts=10, stride=1
            )
            metrics = [
                metric("modules", h.num_modules, "count", EXACT, labels),
                metric("nets", h.num_nets, "count", EXACT, labels),
                metric("nets_cut", result.nets_cut, "count", EXACT, labels),
                metric("ratio_cut", result.ratio_cut, "", EXACT, labels),
                metric(
                    "seconds", round(result.elapsed_seconds, 6), "s", NOISY,
                    labels,
                ),
            ]
            # Work counters are exact; byte gauges (memprof) are not.
            metrics.extend(
                metric(key, value, "bytes", NOISY, labels)
                if key.endswith("_bytes")
                else metric(key, value, "count", EXACT, labels)
                for key, value in obs.counters().items()
            )
            memory = obs.flatten_memory() if memprof else {}
            for span_name, (seconds, count) in sorted(
                obs.flatten_totals().items()
            ):
                phase = dict(labels, phase=span_name)
                metrics.append(metric("phase.count", count, "count", EXACT, phase))
                metrics.append(
                    metric("phase.seconds", round(seconds, 6), "s", NOISY, phase)
                )
                if span_name in memory:
                    alloc, peak = memory[span_name]
                    metrics.append(
                        metric("phase.mem_alloc_bytes", alloc, "bytes", NOISY, phase)
                    )
                    metrics.append(
                        metric("phase.mem_peak_bytes", peak, "bytes", NOISY, phase)
                    )
            if memprof:
                metrics.extend(
                    metric(key, value, "bytes", NOISY, labels)
                    for key, value in obs.memory_snapshot().items()
                )
    events = [e for e in sink.events if e.get("type") == "span"]
    events.extend(
        _downsample_curve(e)
        for e in sink.events
        if e.get("type") == "point" and _is_curve_event(e)
    )
    return metrics, {"labels": labels, "events": events}


def run_observed_suite(
    names: Optional[Sequence[str]] = None,
    seed: int = 0,
    scale: float = 1.0,
    algorithm: str = "ig-match",
    parallel: Optional[ParallelConfig] = None,
    memprof: bool = False,
) -> Dict[str, Any]:
    """Run ``algorithm`` over the suite with observability enabled.

    Each circuit is partitioned with a fresh observability session
    (counters reset between circuits) and becomes metrics labelled
    ``circuit``: exact ``modules``, ``nets``, ``nets_cut``,
    ``ratio_cut``, every counter and every phase's ``phase.count``
    (label ``phase``), and noisy ``seconds`` and ``phase.seconds``.
    The payload's ``traces`` keep each circuit's span events (so
    reports can rebuild the phase tree) and its convergence curves
    (ratio-cut sweeps, residual decay, FM gains), downsampled to a
    rendering-friendly size.  Returns a schema-3 bench payload of kind
    ``obs`` (:mod:`repro.obs.diff`).

    ``parallel`` fans the per-circuit runs out over a worker pool
    (``None`` resolves from the ``REPRO_WORKERS`` / ``REPRO_BACKEND``
    environment).  Exact metrics, their order and the traces' span and
    curve structure are identical to a serial run's; only wall clocks
    vary.

    ``memprof`` turns on per-span memory attribution: each phase gains
    noisy ``phase.mem_alloc_bytes`` / ``phase.mem_peak_bytes`` and
    each circuit a memory snapshot (``rss_bytes``, ``max_rss_bytes``,
    tracemalloc watermarks).  Memory metrics never gate.
    """
    if names is None:
        names = [spec.name for spec in BENCHMARKS]
    results = pstarmap(
        _circuit_task,
        [(name, seed, scale, algorithm, memprof) for name in names],
        parallel,
        label="bench.circuits",
    )
    return make_payload(
        "obs",
        {"algorithm": algorithm, "seed": seed, "scale": scale, "memprof": memprof},
        [m for metrics, _trace in results for m in metrics],
        traces=[trace for _metrics, trace in results],
    )


def planted_sides(h: Hypergraph, spec: BenchmarkSpec) -> List[int]:
    """The planted natural partition of a generated circuit.

    The generator assigns modules ``0 .. num_u-1`` to the U block; this
    reconstructs that assignment (used by tests to verify the planted
    structure is actually a good ratio cut).
    """
    num_u = max(
        2,
        min(
            h.num_modules - 2,
            round(spec.natural_fraction * h.num_modules),
        ),
    )
    return [0 if v < num_u else 1 for v in range(h.num_modules)]
