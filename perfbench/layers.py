"""Outside-in per-layer tracing for the benchmark's traced run.

The program is not instrumented for this.  Instead, :class:`LayerTracer`
replaces the public entry points of each layer with thin wrappers for
the duration of a traced pass, and restores them afterwards.  Each
wrapper records a span: its duration, minus the time of the spans it
caused (its children), is the span's *self time*.  Counts come from the
values the entry points return and from public attributes.  The one
program counter read is ``lanczos.iterations``, which only counts when
``repro.obs`` is on; the spectral wrapper turns it on in a private obs
state for the duration of that call.

Layers are named after the program's modules.  Every metric name here
is one of the ``per_layer`` metrics in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span metrics (self seconds) per layer, in report order.
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "hypergraph": ("hypergraph.load_s",),
    "intersection": ("intersection.build_s",),
    "spectral": ("spectral.ordering_s",),
    "matching": (
        "matching.move_s",
        "matching.classify_s",
        "matching.jump_start_s",
    ),
    "partitioning.igmatch": ("igmatch.sweep_self_s",),
    "partitioning.fm": ("fm.init_s", "fm.pass_s"),
    "delta": (
        "delta.apply_s",
        "delta.igraph_update_s",
        "delta.warm_self_s",
    ),
    "service": ("service.fingerprint_s", "service.self_s"),
}

#: Count metrics per layer, in report order.
LAYER_COUNTS: Dict[str, Tuple[str, ...]] = {
    "hypergraph": ("hypergraph.pins",),
    "intersection": ("intersection.edges",),
    "spectral": ("spectral.lanczos_iterations",),
    "matching": (
        "matching.augmentations",
        "matching.search_visits",
        "matching.classify_calls",
    ),
    "partitioning.igmatch": ("igmatch.splits_evaluated",),
    "partitioning.fm": ("fm.passes", "fm.moves_attempted"),
    "delta": ("delta.window_splits",),
    "service": ("service.session_bytes",),
}

#: Whole-pass figures of the traced run itself.
TRACE_METRICS = ("trace.overhead_s", "trace.unattributed_s")

SPAN_METRICS = tuple(m for names in LAYER_SPANS.values() for m in names)
COUNT_METRICS = tuple(m for names in LAYER_COUNTS.values() for m in names)


def _num_edges(tracer: "LayerTracer", graph: Any, args: tuple) -> None:
    tracer.counts["intersection.edges"] += graph.num_edges


def _splits(tracer: "LayerTracer", outcome: Any, args: tuple) -> None:
    evaluations, _partition = outcome
    tracer.counts["igmatch.splits_evaluated"] += len(evaluations)


def _window_splits(tracer: "LayerTracer", outcome: Any, args: tuple) -> None:
    result, _artifacts, _warm = outcome
    tracer.counts["delta.window_splits"] += int(
        result.details.get("splits_evaluated", 0)
    )


def _matcher(tracer: "LayerTracer", outcome: Any, args: tuple) -> None:
    # Matchers are summed once per pass, after the pass (their counters
    # are cumulative per instance).
    tracer.matchers[id(args[0])] = args[0]


def _classified(tracer: "LayerTracer", outcome: Any, args: tuple) -> None:
    _matcher(tracer, outcome, args)
    tracer.counts["matching.classify_calls"] += 1


def _fm_pass(tracer: "LayerTracer", outcome: Any, args: tuple) -> None:
    engine = args[0]
    tracer.counts["fm.passes"] += 1
    tracer.counts["fm.moves_attempted"] += int(engine.last_pass["moved"])


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span metric, after-hook)`` for every public
    entry point the traced run wraps.

    Module attributes are patched in the module that *calls* them, since
    the callers bound the name at import time.
    """
    import repro.delta.warm as warm
    import repro.partitioning.igmatch as igmatch
    import repro.service.engine as engine
    from repro.delta import NetlistDelta
    from repro.matching import IncrementalMatching
    from repro.partitioning.fm import FMEngine

    return [
        (igmatch, "intersection_graph", "intersection.build_s", _num_edges),
        (warm, "graph_from_edge_state", "intersection.build_s", _num_edges),
        (igmatch, "spectral_ordering", "spectral.ordering_s", None),
        (warm, "spectral_ordering", "spectral.ordering_s", None),
        (IncrementalMatching, "move_to_right", "matching.move_s", _matcher),
        (IncrementalMatching, "classify", "matching.classify_s", _classified),
        (IncrementalMatching, "jump_start", "matching.jump_start_s", _matcher),
        (igmatch, "ig_match_sweep", "igmatch.sweep_self_s", _splits),
        (warm, "ig_match_sweep", "igmatch.sweep_self_s", _splits),
        (FMEngine, "__init__", "fm.init_s", None),
        (FMEngine, "run_pass", "fm.pass_s", _fm_pass),
        (NetlistDelta, "apply_detailed", "delta.apply_s", None),
        (warm, "updated_edge_state", "delta.igraph_update_s", None),
        (engine, "warm_partition", "delta.warm_self_s", _window_splits),
        (engine, "request_fingerprint", "service.fingerprint_s", None),
        (engine.PartitionEngine, "partition", "service.self_s", None),
        (engine.PartitionEngine, "partition_delta", "service.self_s", None),
    ]


class LayerTracer:
    """Self time and counts per layer, recorded from outside the program.

    :meth:`install` wraps the entry points; spans record only while
    :attr:`active` is true, so the benchmark's own checks (which call
    some of the same functions) stay out of the figures.
    """

    def __init__(self) -> None:
        self.active = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.spans: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.matchers: Dict[int, Any] = {}
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded (call between passes)."""
        self.self_s.clear()
        self.spans.clear()
        self.counts.clear()
        self.matchers.clear()

    def _record(self, name: str, fn: Callable, *args: Any, **kwargs: Any):
        children = [0.0]
        self._stack.append(children)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += duration
            self.self_s[name] += duration - children[0]
            self.spans[name] += 1

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any):
        """Run ``fn`` as a span named ``name`` (for the benchmark's own
        call sites, such as ``load_net``)."""
        if not self.active:
            return fn(*args, **kwargs)
        return self._record(name, fn, *args, **kwargs)

    def _wrap(self, fn: Callable, name: str, after: Optional[Callable]):
        tracer = self
        spectral = name == "spectral.ordering_s"

        def wrapper(*args: Any, **kwargs: Any):
            if not tracer.active:
                return fn(*args, **kwargs)
            if spectral:
                outcome = tracer._record(name, _count_lanczos, tracer, fn,
                                         *args, **kwargs)
            else:
                outcome = tracer._record(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, outcome, args)
            return outcome

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every entry point (idempotent until :meth:`uninstall`)."""
        if self._patches:
            return
        for owner, attr, name, after in _targets():
            own = isinstance(owner, type) and attr in owner.__dict__
            original = owner.__dict__[attr] if own else getattr(owner, attr)
            self._patches.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(original, name, after))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, original, own in reversed(self._patches):
            if isinstance(owner, type) and not own:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def finish_pass(self) -> None:
        """Fold the per-instance matcher counters into :attr:`counts`."""
        for matcher in self.matchers.values():
            self.counts["matching.augmentations"] += matcher.augmentations
            self.counts["matching.search_visits"] += matcher.search_visits
        self.matchers.clear()

    def layer_spans(self) -> Dict[str, int]:
        """Spans recorded per layer."""
        return {
            layer: sum(self.spans.get(name, 0) for name in names)
            for layer, names in LAYER_SPANS.items()
        }


def _count_lanczos(tracer: LayerTracer, fn: Callable, *args: Any, **kwargs):
    """Call ``fn`` with ``repro.obs`` on in a private state and add the
    ``lanczos.iterations`` it counted."""
    from repro import obs

    with obs.isolated() as state:
        obs.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.counts["spectral.lanczos_iterations"] += int(
                state.counters.get("lanczos.iterations", 0)
            )
            obs.disable()
