"""repro.obs — spans, counters, and structured trace output.

The observability layer for the whole IG-Match pipeline.  Off by
default with a module-level no-op fast path; when enabled it collects

* nesting wall-clock **spans** at phase granularity (intersection-graph
  build, eigensolves, split sweeps, FM passes, coarsening levels),
* process-wide **counters/gauges** (Lanczos iterations, matching
  augmentations, FM moves, ...),
* a **JSON-lines event stream** for machine consumption.

Typical use (what ``repro-partition --profile --trace-json t.jsonl``
does)::

    from repro import obs

    with obs.enabled(sink=obs.JsonLinesSink("trace.jsonl")):
        result = ig_match(h)
        print(obs.phase_report())
    # disable() ran on exit (even on exceptions): counters flushed,
    # sink closed.  The manual obs.enable()/obs.disable() pair remains
    # available when the scope cannot be a single block.

Instrumented library code uses three idioms:

* ``with obs.span("igmatch.sweep", nets=m) as sp: ... sp.set(splits=s)``
  around phases;
* local integer/``perf_counter`` accumulators inside hot loops,
  reported once via ``obs.add_timing`` / ``obs.incr``;
* ``obs.emit("spectral.lanczos", iterations=...)`` for point
  observations worth a trace line of their own.

Everything in a trace is deterministic under a fixed seed except
wall-clock durations (``dur_s`` fields); see
:mod:`repro.obs.events` for the event schema and
``docs/observability.md`` for the span-name catalogue.

Benchmarks report through one payload shape, schema 3
(:mod:`repro.obs.diff`: ``make_payload``, ``validate_payload``,
``diff_payloads``), rendered by one renderer (:mod:`repro.obs.render`:
``render_markdown``, ``render_html``; ``publish`` is the CLIs' shared
write / compare / report tail).
"""

from .counters import counters, gauge, gauges, incr, reset_counters
from .diff import (
    BenchDiff,
    DiffThresholds,
    FieldDiff,
    diff_payloads,
    load_payload,
    validate_payload,
    write_payload,
)
from .events import JsonLinesSink, MemorySink, emit
from .hist import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    HistogramSet,
    log_buckets,
)
from .memprof import (
    RssSampler,
    disable_memprof,
    enable_memprof,
    memory_snapshot,
    memprof_active,
    memprof_enabled,
    rss_sampling,
)
from .proc import build_info, process_metrics
from .prom import parse_prometheus_text, render_prometheus
from .registry import (
    STATE,
    current_state,
    disable,
    enable,
    enabled,
    is_enabled,
    isolated,
    reset,
)
from .render import (
    load_jsonl,
    publish,
    render_html,
    render_markdown,
    render_slow_html,
    render_trace_html,
    span_tree_from_events,
)
from .report import flatten_memory, flatten_totals, human_bytes, phase_report
from .span import Span, SpanNode, add_timing, span
from .trace import TraceCapture, current_trace_id, new_trace_id

__all__ = [
    "BenchDiff",
    "DEFAULT_LATENCY_BUCKETS",
    "DiffThresholds",
    "FieldDiff",
    "Histogram",
    "HistogramSet",
    "JsonLinesSink",
    "MemorySink",
    "RssSampler",
    "STATE",
    "Span",
    "SpanNode",
    "TraceCapture",
    "add_timing",
    "build_info",
    "counters",
    "current_state",
    "current_trace_id",
    "diff_payloads",
    "disable",
    "disable_memprof",
    "emit",
    "enable",
    "enable_memprof",
    "enabled",
    "flatten_memory",
    "flatten_totals",
    "gauge",
    "gauges",
    "human_bytes",
    "incr",
    "is_enabled",
    "isolated",
    "load_jsonl",
    "load_payload",
    "log_buckets",
    "memory_snapshot",
    "memprof_active",
    "memprof_enabled",
    "new_trace_id",
    "parse_prometheus_text",
    "phase_report",
    "process_metrics",
    "publish",
    "render_html",
    "render_markdown",
    "render_prometheus",
    "render_slow_html",
    "render_trace_html",
    "reset",
    "reset_counters",
    "rss_sampling",
    "span",
    "span_tree_from_events",
    "validate_payload",
    "write_payload",
]
