"""The serving request path: fingerprint → cache → partitioner.

:class:`PartitionRequest` is the frozen, hashable description of one
partitioning problem configuration — the algorithm plus every knob that
can change the answer.  :func:`run_partitioner` is the single dispatch
point from a request to the eight bipartitioning algorithms (the CLI
delegates here, so library, CLI, and HTTP callers run literally the
same code path — the base of the byte-identical serving contract).

:class:`PartitionEngine` wraps that dispatch with:

* **content-addressed caching** — the request fingerprint
  (:func:`repro.service.fingerprint.request_fingerprint`) keys a
  :class:`repro.service.cache.ResultCache`; hits skip the partitioner
  entirely (no intersection build, no eigensolve, no sweep — their obs
  spans are simply absent from a cached serve);
* **single-flight deduplication** — concurrent identical requests
  compute once; the N−1 waiters are served the first flight's payload
  and count as cache hits;
* **async jobs** — :meth:`PartitionEngine.submit` queues requests on a
  :class:`repro.service.jobs.JobScheduler` with priorities, deadlines
  and bounded retries; :meth:`PartitionEngine.submit_batch` additionally
  deduplicates identical requests *within* the batch;
* **request-scoped telemetry** — every serve runs inside a
  :class:`repro.obs.TraceCapture`, so the full span tree it produces
  (down to ``spectral.lanczos`` and the matching sweeps) is stamped
  with the request's ``trace_id``; latency lands in always-on
  :class:`repro.obs.HistogramSet` series (request, cache lookup,
  per-algorithm compute), and any request slower than the configured
  threshold leaves a full-trace exemplar in a :class:`SlowLog` ring
  buffer (served at ``GET /debug/slow``).

Counters (mirrored into :mod:`repro.obs` and always tallied locally for
``/metrics``): ``service.requests``, ``service.cache.hit``,
``service.cache.miss``, ``service.cache.hit.inflight``,
``service.computed``, ``service.rejected`` (ingress backpressure
429s, tallied by the HTTP layer via :meth:`PartitionEngine.reject`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs.trace import new_trace_id
from ..clustering import MultilevelConfig, multilevel_partition
from ..errors import ReproError
from ..hypergraph import Hypergraph
from ..parallel import ParallelConfig
from ..partitioning import (
    AnnealingConfig,
    EIG1Config,
    FMConfig,
    IGMatchConfig,
    IGVoteConfig,
    KLConfig,
    PartitionResult,
    RCutConfig,
    anneal,
    eig1,
    fm_bipartition,
    ig_match,
    ig_vote,
    kl_bisection,
    rcut,
)
from ..partitioning.partition import Partition
from ..delta import (
    NetlistDelta,
    SessionArtifacts,
    seed_artifacts,
    warm_partition,
)
from .cache import ResultCache
from .fingerprint import request_fingerprint
from .jobs import Job, JobScheduler
from .sessions import SessionMissError, SessionStore

__all__ = [
    "ALGORITHMS",
    "PartitionEngine",
    "PartitionRequest",
    "RESULT_SCHEMA",
    "ServedResult",
    "SlowLog",
    "canonical_result_bytes",
    "payload_to_result",
    "result_to_payload",
    "run_partitioner",
]

#: The eight bipartitioning algorithms the service can run.
ALGORITHMS = (
    "ig-match",
    "ig-vote",
    "eig1",
    "rcut",
    "fm",
    "kl",
    "anneal",
    "multilevel",
)

#: Version of the cached/served result payload shape.
RESULT_SCHEMA = 1

#: Request knobs that only matter to *one* algorithm.  They are dropped
#: from the cache key for every other algorithm, so e.g. an ``fm``
#: request with the default ``restarts`` and one with ``restarts=50``
#: share a cache line (RCut is the only consumer of ``restarts``).
_ALGORITHM_KNOBS = {
    "ig-match": ("split_stride",),
    "rcut": ("restarts",),
    "fm": ("starts",),
}


@dataclass(frozen=True)
class PartitionRequest:
    """One frozen partitioning problem configuration.

    Only fields that can change the *answer* belong here; execution
    details (worker counts, backends, tracing) live outside the request
    because :mod:`repro.parallel` guarantees they cannot change results.
    """

    algorithm: str = "ig-match"
    seed: int = 0
    restarts: int = 10
    split_stride: int = 1
    starts: int = 1

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ReproError(
                f"unknown algorithm {self.algorithm!r} "
                f"(choose from {', '.join(ALGORITHMS)})"
            )
        for fname in ("seed", "restarts", "split_stride", "starts"):
            value = getattr(self, fname)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ReproError(
                    f"{fname} must be an integer, got {value!r}"
                )
        if self.restarts < 1 or self.split_stride < 1 or self.starts < 1:
            raise ReproError(
                "restarts, split_stride and starts must be >= 1"
            )

    @classmethod
    def from_mapping(cls, doc: Dict[str, Any]) -> "PartitionRequest":
        """Build from an untrusted dict (HTTP body), rejecting unknown
        keys with a clear error instead of silently ignoring them."""
        known = {"algorithm", "seed", "restarts", "split_stride", "starts"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ReproError(
                f"unknown request field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return cls(**doc)

    def key_fields(self) -> Dict[str, Any]:
        """The fields that enter the cache key for this algorithm."""
        fields: Dict[str, Any] = {
            "algorithm": self.algorithm,
            "seed": self.seed,
        }
        for knob in _ALGORITHM_KNOBS.get(self.algorithm, ()):
            fields[knob] = getattr(self, knob)
        return fields


def run_partitioner(
    h: Hypergraph,
    request: PartitionRequest,
    parallel: Optional[ParallelConfig] = None,
    capture: Optional[Dict[str, Any]] = None,
) -> PartitionResult:
    """Run the requested algorithm directly (no cache involvement).

    ``parallel`` fans out RCut restarts and FM starts; it never
    affects results, only wall-clock time, so it does not enter any
    cache fingerprint.  ``capture`` (ig-match only) receives the
    warm-start seed the serving sessions store; it never changes the
    result.
    """
    algorithm = request.algorithm
    seed = request.seed
    if algorithm == "ig-match":
        return ig_match(
            h,
            IGMatchConfig(seed=seed, split_stride=request.split_stride),
            capture=capture,
        )
    if algorithm == "ig-vote":
        return ig_vote(h, IGVoteConfig(seed=seed))
    if algorithm == "eig1":
        return eig1(h, EIG1Config(seed=seed))
    if algorithm == "rcut":
        return rcut(
            h,
            RCutConfig(
                restarts=request.restarts, seed=seed, parallel=parallel
            ),
        )
    if algorithm == "fm":
        return fm_bipartition(
            h, FMConfig(seed=seed, starts=request.starts, parallel=parallel)
        )
    if algorithm == "kl":
        return kl_bisection(h, KLConfig(seed=seed))
    if algorithm == "anneal":
        return anneal(h, AnnealingConfig(seed=seed))
    if algorithm == "multilevel":
        return multilevel_partition(h, MultilevelConfig(seed=seed))
    raise ReproError(f"unknown algorithm {algorithm!r}")


def _request_key(request: PartitionRequest) -> str:
    """Canonical per-request artifact key within a serving session."""
    import json

    return json.dumps(request.key_fields(), sort_keys=True)


# ----------------------------------------------------------------------
# Result payloads
# ----------------------------------------------------------------------
def _scalar_details(details: Dict[str, Any]) -> Dict[str, Any]:
    return {
        k: v
        for k, v in details.items()
        if isinstance(v, (int, float, str, bool))
    }


def result_to_payload(result: PartitionResult) -> Dict[str, Any]:
    """Serialise a result into the JSON-safe cached payload."""
    return {
        "schema": RESULT_SCHEMA,
        "algorithm": result.algorithm,
        "sides": list(result.partition.sides),
        "areas": result.areas,
        "nets_cut": result.nets_cut,
        "ratio_cut": result.ratio_cut,
        "elapsed_seconds": result.elapsed_seconds,
        "details": _scalar_details(result.details),
    }


def payload_to_result(
    h: Hypergraph, payload: Dict[str, Any]
) -> PartitionResult:
    """Rebuild a :class:`PartitionResult` from a cached payload."""
    if payload.get("schema") != RESULT_SCHEMA:
        raise ReproError(
            f"unknown result payload schema {payload.get('schema')!r} "
            f"(expected {RESULT_SCHEMA})"
        )
    return PartitionResult(
        algorithm=payload["algorithm"],
        partition=Partition(h, payload["sides"]),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        details=dict(payload.get("details", {})),
    )


def canonical_result_bytes(result: PartitionResult) -> bytes:
    """The deterministic fields of a result as canonical JSON bytes.

    This is the serving equivalence contract: for the same hypergraph,
    request, and seed, these bytes are identical whether the result came
    from a direct library call, a cold engine serve, a cached serve, or
    an HTTP round-trip.  Wall-clock fields are excluded — they are the
    only nondeterministic part of a result.
    """
    import json

    payload = result_to_payload(result)
    payload.pop("elapsed_seconds", None)
    details = payload.get("details", {})
    for key in list(details):
        if key.endswith(("seconds", "_s")) or key.startswith("time"):
            details.pop(key)
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class ServedResult:
    """What the engine returns: the result plus serving provenance."""

    result: PartitionResult
    fingerprint: str
    cached: bool
    source: str  # "computed" | "memory" | "disk" | "inflight"
    trace_id: str = ""
    duration_s: float = 0.0

    def response(self) -> Dict[str, Any]:
        """The JSON document the HTTP layer returns for a serve."""
        return {
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "source": self.source,
            "trace_id": self.trace_id,
            "duration_s": round(self.duration_s, 6),
            "result": result_to_payload(self.result),
        }


class SlowLog:
    """Ring buffer of slow-request exemplars (newest kept, oldest out).

    Any request whose wall-clock meets ``threshold_s`` leaves its full
    trace here: the span tree (with compute phases), raw events, and
    counter totals the request produced, all stamped with its
    ``trace_id``.  ``GET /debug/slow`` serves the buffer; the HTML form
    is :func:`repro.obs.render_slow_html`.  Thread-safe; bounded by
    ``capacity``, so a storm of slow requests costs memory for at most
    ``capacity`` traces.
    """

    def __init__(self, threshold_s: float = 1.0, capacity: int = 32):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.threshold_s = float(threshold_s)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: List[Dict[str, Any]] = []
        self._recorded = 0

    def record(self, entry: Dict[str, Any]) -> None:
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1
            if len(self._entries) > self.capacity:
                del self._entries[: len(self._entries) - self.capacity]

    def entries(self) -> List[Dict[str, Any]]:
        """Recorded exemplars, newest first."""
        with self._lock:
            return list(reversed(self._entries))

    def snapshot(self) -> Dict[str, Any]:
        """Sizing/threshold summary for ``/metrics``."""
        with self._lock:
            held = len(self._entries)
            recorded = self._recorded
        return {
            "threshold_s": self.threshold_s,
            "capacity": self.capacity,
            "held": held,
            "recorded": recorded,
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class _Flight:
    """A computation in progress that duplicates can wait on."""

    __slots__ = ("event", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: Optional[Dict[str, Any]] = None
        self.error: Optional[BaseException] = None


class PartitionEngine:
    """Cache-fronted, dedup-aware partitioning engine.

    ``cache=None`` disables result caching entirely (every request
    computes).  ``parallel`` is forwarded to the partitioners' internal
    fan-outs; it never affects results, only wall-clock time.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        parallel: Optional[ParallelConfig] = None,
        scheduler: Optional[JobScheduler] = None,
        hists: Optional[obs.HistogramSet] = None,
        slow_threshold_s: float = 1.0,
        slow_capacity: int = 32,
        memprof: bool = False,
        sessions: Optional[SessionStore] = None,
    ):
        self.cache = cache
        self.parallel = parallel
        #: Live warm-start sessions for ``POST /partition/delta``
        #: (always on; bounded LRU+TTL, see :class:`SessionStore`).
        self.sessions = sessions if sessions is not None else SessionStore()
        #: ``True`` forces per-span memory attribution on for every
        #: request's :class:`~repro.obs.TraceCapture` (``repro-serve
        #: --memprof``); ``False`` inherits whatever the surrounding
        #: context has, so a memory-profiled bench session still sees
        #: request memory.
        self.memprof = bool(memprof)
        self._scheduler = scheduler
        self._scheduler_lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}
        self._inflight_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        #: Always-on latency distributions (request / cache lookup /
        #: compute / job queue-wait) — recorded whether or not obs
        #: tracing is enabled, like ``stats``.
        self.hists = hists if hists is not None else obs.HistogramSet()
        #: Full-trace exemplars of requests over the slow threshold.
        self.slow = SlowLog(
            threshold_s=slow_threshold_s, capacity=slow_capacity
        )
        self.stats: Dict[str, int] = {
            "service.requests": 0,
            "service.cache.hit": 0,
            "service.cache.miss": 0,
            "service.cache.hit.inflight": 0,
            "service.computed": 0,
            "service.rejected": 0,
            "service.delta.requests": 0,
            "service.delta.warm": 0,
            "service.delta.cold": 0,
            "service.delta.noop": 0,
            "service.delta.base_miss": 0,
        }

    # ------------------------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        with self._stats_lock:
            self.stats[name] = self.stats.get(name, 0) + value
        obs.incr(name, value)

    def reject(self) -> None:
        """Tally one backpressure rejection (an ingress 429)."""
        self._count("service.rejected")

    @property
    def scheduler(self) -> JobScheduler:
        """The job scheduler, created on first use."""
        with self._scheduler_lock:
            if self._scheduler is None:
                self._scheduler = JobScheduler(hists=self.hists)
            return self._scheduler

    def queue_depth(self) -> int:
        """Pending jobs right now (0 when no scheduler exists yet)."""
        with self._scheduler_lock:
            scheduler = self._scheduler
        if scheduler is None:
            return 0
        return int(scheduler.snapshot().get("pending", 0))

    def jobs_outstanding(self) -> int:
        """Pending plus running jobs (0 when no scheduler exists yet).

        The graceful-drain path polls this — unlike :attr:`scheduler`
        it never creates a scheduler as a side effect.
        """
        with self._scheduler_lock:
            scheduler = self._scheduler
        if scheduler is None:
            return 0
        snapshot = scheduler.snapshot()
        return (
            int(snapshot.get("pending", 0))
            + int(snapshot.get("running", 0))
            + int(snapshot.get("cancelling", 0))
        )

    # ------------------------------------------------------------------
    def partition(
        self,
        h: Hypergraph,
        request: PartitionRequest,
        use_cache: bool = True,
        trace_id: Optional[str] = None,
    ) -> ServedResult:
        """Serve one request: cache lookup, then compute-once.

        The returned result is byte-identical (in its deterministic
        fields, see :func:`canonical_result_bytes`) to calling
        :func:`run_partitioner` directly — whether it was computed now,
        found in a cache tier, or joined onto an in-flight computation.

        Every serve runs under a :class:`repro.obs.TraceCapture` keyed
        by ``trace_id`` (minted here when the caller did not propagate
        one from ingress): the request's spans and counters are
        attributable to it, its latency is recorded in ``hists``, and a
        request at or over ``slow.threshold_s`` leaves a full-trace
        exemplar in the slow log — on errors too, with
        ``source="error"``.
        """
        key = request_fingerprint(h, request)
        self._count("service.requests")
        capture = obs.TraceCapture(
            trace_id, memprof=True if self.memprof else None
        )
        served: Optional[ServedResult] = None
        try:
            with capture:
                with obs.span(
                    "service.request",
                    algorithm=request.algorithm,
                    fingerprint=key[:12],
                ) as sp:
                    served = self._serve(h, request, key, use_cache, sp)
        finally:
            duration = capture.duration_s
            source = served.source if served is not None else "error"
            self.hists.observe(
                "service.request.duration_seconds",
                duration,
                algorithm=request.algorithm,
                source=source,
            )
            if duration >= self.slow.threshold_s:
                self.slow.record(
                    {
                        "trace_id": capture.trace_id,
                        "time": datetime.now(timezone.utc).isoformat(
                            timespec="milliseconds"
                        ),
                        "algorithm": request.algorithm,
                        "fingerprint": key,
                        "duration_s": round(duration, 6),
                        "source": source,
                        "cached": served.cached if served else False,
                        "spans": capture.spans,
                        "events": capture.events,
                        "counters": capture.counters,
                        # Request memory footprint: RSS always; traced
                        # heap peak when the capture ran memprof (the
                        # capture snapshots while tracing is still on).
                        "mem": capture.mem or obs.memory_snapshot(),
                    }
                )
        served.trace_id = capture.trace_id
        served.duration_s = duration
        return served

    def _serve(
        self,
        h: Hypergraph,
        request: PartitionRequest,
        key: str,
        use_cache: bool,
        sp: Any,
    ) -> ServedResult:
        """The cache → single-flight → compute body of one serve."""
        if not use_cache or self.cache is None:
            capture: Dict[str, Any] = {}
            result = self._compute(h, request, capture=capture)
            self._seed_session(
                h, request, key, result_to_payload(result), capture
            )
            sp.set(source="computed", cached=False)
            return ServedResult(result, key, False, "computed")

        lookup_start = time.perf_counter()
        payload, source = self.cache.lookup(key)
        self.hists.observe(
            "service.cache.lookup.duration_seconds",
            time.perf_counter() - lookup_start,
            outcome="miss" if payload is None else "hit",
        )
        if payload is not None:
            self._count("service.cache.hit")
            # Result-only session (no warm engine state): delta serves
            # on it still reuse the prior sides/rank where they can.
            if key not in self.sessions:
                self.sessions.put(
                    h=h,
                    fingerprint=key,
                    request_key=_request_key(request),
                    artifacts=SessionArtifacts(payload=dict(payload)),
                )
            sp.set(source=source, cached=True)
            return ServedResult(
                payload_to_result(h, payload), key, True, source
            )

        flight, owner = self._join_flight(key)
        if not owner:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            self._count("service.cache.hit")
            self._count("service.cache.hit.inflight")
            sp.set(source="inflight", cached=True)
            assert flight.payload is not None
            return ServedResult(
                payload_to_result(h, flight.payload),
                key,
                True,
                "inflight",
            )

        try:
            self._count("service.cache.miss")
            capture = {}
            result = self._compute(h, request, capture=capture)
            payload = result_to_payload(result)
            self.cache.put(key, payload)
            self._seed_session(h, request, key, payload, capture)
            flight.payload = payload
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
            flight.event.set()
        sp.set(source="computed", cached=False)
        return ServedResult(result, key, False, "computed")

    def _join_flight(self, key: str) -> Tuple[_Flight, bool]:
        """Register interest in ``key``; True when we own the compute."""
        with self._inflight_lock:
            flight = self._inflight.get(key)
            if flight is not None:
                return flight, False
            flight = _Flight()
            self._inflight[key] = flight
            return flight, True

    def _compute(
        self,
        h: Hypergraph,
        request: PartitionRequest,
        capture: Optional[Dict[str, Any]] = None,
    ) -> PartitionResult:
        self._count("service.computed")
        start = time.perf_counter()
        result = run_partitioner(
            h, request, parallel=self.parallel, capture=capture,
        )
        self.hists.observe(
            "service.compute.duration_seconds",
            time.perf_counter() - start,
            algorithm=request.algorithm,
        )
        return result

    def _seed_session(
        self,
        h: Hypergraph,
        request: PartitionRequest,
        key: str,
        payload: Dict[str, Any],
        capture: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Install full warm-start artifacts after a cold compute."""
        artifacts = seed_artifacts(
            h, payload, request.algorithm, capture
        )
        self.sessions.put(
            fingerprint=key,
            h=h,
            request_key=_request_key(request),
            artifacts=artifacts,
        )

    # ------------------------------------------------------------------
    def partition_delta(
        self,
        base_fingerprint: str,
        delta: Any,
        request: PartitionRequest,
        trace_id: Optional[str] = None,
    ) -> ServedResult:
        """Serve a netlist delta against a live session.

        ``delta`` is a :class:`~repro.delta.NetlistDelta` or its wire
        document.  Raises :class:`SessionMissError` when no session
        holds ``base_fingerprint`` (the HTTP layer maps it to a 404
        with the reason), and :class:`~repro.errors.DeltaError` (a 400)
        when the delta is malformed or inconsistent with the base.

        The result is exactly what applying the delta to the base
        hypergraph and warm-partitioning directly would produce; a
        no-op delta returns the session's prior answer verbatim.  The
        edited hypergraph becomes a new session under the returned
        fingerprint, so clients chain deltas indefinitely.
        """
        self._count("service.delta.requests")
        capture = obs.TraceCapture(
            trace_id, memprof=True if self.memprof else None
        )
        served: Optional[ServedResult] = None
        try:
            with capture:
                with obs.span(
                    "service.delta",
                    algorithm=request.algorithm,
                    base=base_fingerprint[:12],
                ) as sp:
                    served = self._serve_delta(
                        base_fingerprint, delta, request, sp
                    )
        finally:
            duration = capture.duration_s
            source = served.source if served is not None else "error"
            self.hists.observe(
                "service.delta.duration_seconds",
                duration,
                algorithm=request.algorithm,
                source=source,
            )
        served.trace_id = capture.trace_id
        served.duration_s = duration
        return served

    def _serve_delta(
        self,
        base_fingerprint: str,
        delta: Any,
        request: PartitionRequest,
        sp: Any,
    ) -> ServedResult:
        entry = self.sessions.get(base_fingerprint)
        if entry is None:
            self._count("service.delta.base_miss")
            raise SessionMissError(
                base_fingerprint,
                f"no live session for base {base_fingerprint!r}: serve "
                "the base netlist first via POST /partition (or the "
                "session was evicted or expired); then retry the delta",
            )
        base = entry.hypergraph
        if isinstance(delta, NetlistDelta):
            d = delta
        else:
            d = NetlistDelta.from_doc(delta)
        d.validate(base)
        application = d.apply_detailed(base)
        h2 = application.hypergraph
        new_key = request_fingerprint(h2, request)
        rkey = _request_key(request)
        artifacts = entry.artifacts.get(rkey)

        if (
            new_key == base_fingerprint
            and artifacts is not None
            and artifacts.payload
        ):
            # No-op delta: the session's stored answer, verbatim.
            self._count("service.delta.noop")
            self._count("service.delta.warm")
            sp.set(source="session", warm=True)
            return ServedResult(
                payload_to_result(h2, artifacts.payload),
                new_key,
                True,
                "session",
            )

        if artifacts is None:
            artifacts = SessionArtifacts(payload={})
        result, fresh, warm = warm_partition(
            base, artifacts, application, request, parallel=self.parallel
        )
        self._count("service.delta.warm" if warm else "service.delta.cold")
        payload = result_to_payload(result)
        fresh.payload = payload
        self.sessions.put(
            fingerprint=new_key,
            h=h2,
            request_key=rkey,
            artifacts=fresh,
        )
        source = "delta-warm" if warm else "delta-cold"
        sp.set(source=source, warm=warm)
        # Deliberately NOT written to the result cache: warm details
        # (window, warm flag) differ from a cold compute's, and cache
        # entries must stay byte-identical to cold serves.
        return ServedResult(result, new_key, False, source)

    # ------------------------------------------------------------------
    def submit(
        self,
        h: Hypergraph,
        request: PartitionRequest,
        priority: int = 0,
        max_retries: int = 0,
        deadline_s: Optional[float] = None,
        use_cache: bool = True,
        trace_id: Optional[str] = None,
    ) -> Job:
        """Queue a request as an async job; the job result is the
        :meth:`ServedResult.response` document.

        ``trace_id`` (from ingress) rides along on the job record and
        is reused when the worker finally serves the request, so async
        results stay attributable to the submitting HTTP request.
        """
        tid = trace_id or new_trace_id()

        def work() -> Dict[str, Any]:
            return self.partition(
                h, request, use_cache=use_cache, trace_id=tid
            ).response()

        return self.scheduler.submit(
            work,
            priority=priority,
            max_retries=max_retries,
            deadline_s=deadline_s,
            label=request.algorithm,
            trace_id=tid,
        )

    def submit_batch(
        self,
        items: Sequence[Tuple[Hypergraph, PartitionRequest]],
        priority: int = 0,
        use_cache: bool = True,
    ) -> List[Job]:
        """Submit many requests, deduplicating identical ones.

        Returns one :class:`Job` handle per input item, in order; items
        whose fingerprint matches an earlier item in the batch share the
        earlier item's job (so N identical submissions schedule exactly
        one computation).
        """
        jobs: List[Job] = []
        by_key: Dict[str, Job] = {}
        for h, request in items:
            key = request_fingerprint(h, request)
            job = by_key.get(key)
            if job is None:
                job = self.submit(
                    h, request, priority=priority, use_cache=use_cache
                )
                by_key[key] = job
            else:
                self._count("service.batch.dedup")
            jobs.append(job)
        return jobs

    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        """Metrics snapshot for ``/metrics``: counters, histograms,
        slow-log summary (engine, cache, jobs)."""
        with self._stats_lock:
            doc: Dict[str, Any] = {"service": dict(self.stats)}
        doc["service"].update(self.sessions.stats_dict())
        if self.cache is not None:
            doc["cache"] = self.cache.snapshot()
        with self._scheduler_lock:
            scheduler = self._scheduler
        if scheduler is not None:
            doc["jobs"] = scheduler.snapshot()
        doc["histograms"] = self.hists.snapshot()
        doc["slow"] = self.slow.snapshot()
        doc["process"] = obs.process_metrics()
        doc["info"] = obs.build_info()
        if obs.is_enabled():
            doc["obs"] = obs.counters("service.")
        return doc
