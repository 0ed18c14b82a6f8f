"""Request-scoped tracing: trace ids and per-request span capture.

The serving layer attributes *every* span, counter, and event a request
produces to that request's ``trace_id``:

* :func:`new_trace_id` mints an id at HTTP ingress (or honours an
  inbound ``X-Trace-Id``); :func:`current_trace_id` reads the id bound
  to the calling context (a :class:`contextvars.ContextVar`, so
  concurrent requests on a threaded server never see each other's id).
* :class:`TraceCapture` wraps one request's compute.  It records into a
  **fresh, always-enabled** :class:`~repro.obs.registry.ObsState`
  (via the same ContextVar isolation the parallel executor uses), so
  the full phase tree — intersection build, eigensolves, matching
  sweeps — is captured for every request even when global tracing is
  off.  On exit the capture is stamped with the trace id and, when the
  surrounding context *does* have tracing enabled, merged back into it
  exactly like a parallel worker's fragment — ``--profile`` and
  ``BENCH_obs.json`` keep seeing one coherent tree.

Parallel fan-outs inside a captured request need no extra plumbing: the
executor captures per-worker fragments whenever the *submitting*
context is enabled (which a :class:`TraceCapture` scope always is) and
merges them in submission order, so worker spans land in the request's
capture whether the fan-out ran inline or on the process pool.

:func:`merge_into_current` is the one shared implementation of
fragment folding — :mod:`repro.parallel.tracing` delegates here.
"""

from __future__ import annotations

import contextvars
import time
import uuid
from typing import Any, Dict, List, Optional

from .events import MemorySink, emit_raw
from .registry import current_state, disable, enable, isolated
from .span import SpanNode

__all__ = [
    "TraceCapture",
    "current_trace_id",
    "merge_into_current",
    "new_trace_id",
    "span_node_from_dict",
    "span_node_to_dict",
]

_TRACE_ID: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_trace_id", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-char request trace id."""
    return uuid.uuid4().hex[:16]


def current_trace_id() -> Optional[str]:
    """The trace id bound to the calling context, if any."""
    return _TRACE_ID.get()


# ----------------------------------------------------------------------
# Span-tree (de)serialisation — shared with repro.parallel.tracing.


def span_node_to_dict(node: SpanNode) -> Dict[str, Any]:
    """One span node (and its subtree) as a picklable plain dict."""
    return {
        "name": node.name,
        "attrs": dict(node.attrs),
        "seconds": node.seconds,
        "count": node.count,
        "children": [span_node_to_dict(child) for child in node.children],
    }


def span_node_from_dict(data: Dict[str, Any]) -> SpanNode:
    """Rebuild a :class:`SpanNode` tree from its dict form."""
    node = SpanNode(data["name"], data["attrs"])
    node.seconds = data["seconds"]
    node.count = data["count"]
    node.children = [
        span_node_from_dict(child) for child in data["children"]
    ]
    return node


def merge_into_current(fragment: Optional[Dict[str, Any]]) -> None:
    """Fold a trace fragment into the calling context's obs state.

    ``fragment`` is ``{"counters": {...}, "spans": [node dict, ...],
    "events": [event dict, ...]}``.  Counters are summed, span trees
    are grafted under the currently open span, and events are re-emitted
    with re-assigned sequence numbers and depth offsets.  No-op when
    ``fragment`` is ``None`` or the current state is not collecting.
    Call in deterministic (submission) order.
    """
    if fragment is None:
        return
    state = current_state()
    if not state.enabled:
        return
    for name, value in fragment["counters"].items():
        state.counters[name] = state.counters.get(name, 0) + value
    parent = state.stack[-1] if state.stack else None
    target: List[Any] = (
        parent.children if parent is not None else state.roots
    )
    for data in fragment["spans"]:
        target.append(span_node_from_dict(data))
    if state.sinks:
        depth_offset = len(state.stack)
        for event in fragment["events"]:
            merged = dict(event)
            if isinstance(merged.get("depth"), int):
                merged["depth"] = merged["depth"] + depth_offset
            merged["seq"] = state.next_seq()
            emit_raw(merged)


# ----------------------------------------------------------------------


class TraceCapture:
    """Capture everything one request records, stamped with a trace id.

    ::

        capture = TraceCapture()           # or TraceCapture("6f2a...")
        with capture:
            ... serve the request ...
        capture.duration_s                 # wall-clock of the block
        capture.spans                      # span tree (root node dicts)
        capture.events                     # raw span/point events
        capture.counters                   # counter totals

    Inside the block, instrumentation is **always on** and records into
    a private state; :func:`current_trace_id` returns the capture's id.
    On exit (including on exceptions — a failing request's partial
    trace is still attributed) the capture is merged into the enclosing
    obs state when that state is enabled, so global profiling sessions
    see served requests exactly as before, now with ``trace_id`` on
    every span and event.
    """

    def __init__(
        self,
        trace_id: Optional[str] = None,
        memprof: Optional[bool] = None,
    ):
        self.trace_id = trace_id or new_trace_id()
        self.duration_s = 0.0
        self.spans: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        #: ``True``/``False`` force per-span memory attribution on/off
        #: for the capture; ``None`` (default) inherits the enclosing
        #: state's memprof flag, so a memory-profiled session sees
        #: served requests with memory attribution too.
        self.memprof = memprof
        #: Memory snapshot taken at capture exit, while the capture's
        #: tracemalloc session (if any) is still live — so it carries
        #: ``traced_peak_bytes`` for the request.  ``None`` until exit.
        self.mem: Optional[Dict[str, float]] = None

    def __enter__(self) -> "TraceCapture":
        want_memprof = self.memprof
        if want_memprof is None:
            want_memprof = current_state().memprof
        self._iso = isolated()
        self._state = self._iso.__enter__()
        self._sink = MemorySink()
        enable(sink=self._sink)
        if want_memprof:
            from .memprof import enable_memprof

            enable_memprof()
        self._trace_token = _TRACE_ID.set(self.trace_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.duration_s = time.perf_counter() - self._start
        state = self._state
        try:
            from .memprof import memory_snapshot

            self.mem = memory_snapshot()
            self.counters = dict(state.counters)
            self.spans = [span_node_to_dict(node) for node in state.roots]
            disable()
        finally:
            _TRACE_ID.reset(self._trace_token)
            self._iso.__exit__(None, None, None)
        for node in self.spans:
            node["attrs"]["trace_id"] = self.trace_id
        # The trailing {"type": "counters"} event disable() flushed is
        # dropped — the enclosing session emits its own merged totals.
        self.events = [
            dict(event, trace_id=self.trace_id)
            for event in self._sink.events
            if event.get("type") != "counters"
        ]
        merge_into_current(
            {
                "counters": self.counters,
                "spans": self.spans,
                "events": self.events,
            }
        )
        return False

    def fragment(self) -> Dict[str, Any]:
        """The captured data in the standard fragment shape."""
        return {
            "counters": dict(self.counters),
            "spans": list(self.spans),
            "events": list(self.events),
        }

    def span_names(self) -> List[str]:
        """Every span name in the capture, in tree order (for tests)."""
        names: List[str] = []

        def walk(nodes: List[Dict[str, Any]]) -> None:
            for node in nodes:
                names.append(node["name"])
                walk(node["children"])

        walk(self.spans)
        return names
