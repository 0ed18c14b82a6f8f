"""Threaded stdlib HTTP client: send the schedule, record everything.

:class:`LoadClient` drives a :class:`repro.loadgen.workload.Workload`
against a running ``repro-serve`` instance using only
``urllib.request`` and threads, in a closed loop.  Every request
records a :class:`RequestRecord` — latency, HTTP status, the
server-echoed ``X-Trace-Id``, and cache provenance (``source`` from the
response body) — and lands in client-side
:class:`repro.obs.HistogramSet` histograms
(``loadgen.request.duration_seconds{algorithm,outcome}``), the same
mergeable log-bucket machinery the server keeps, so client and server
distributions are directly comparable.

Outcome vocabulary (disjoint; every request gets exactly one):

``ok``
    HTTP 200 with a parsed result body.
``rejected``
    HTTP 503 (the server is draining) — flow control, **not** an
    error: the server answered honestly that it would not take the
    work.  Excluded from the SLO error rate.
``error``
    Any other HTTP status (a 400/404/500 means the client or server is
    actually wrong).
``refused``
    The TCP connection was refused, or reset/closed before any
    response byte arrived — the request never reached the
    application (normal once a drain closes the listener), so it
    appears in no server-side count.
``transport``
    Any other network failure (timeout, malformed response): possibly
    a lost accepted request, which the graceful-drain guarantee says
    must never happen.  The cross-check catches losses this taxonomy
    cannot see client-side: a request the server logged but the
    client never counted as a response shows up as a count mismatch.

:func:`scrape_metrics` fetches ``/metrics`` in both content types and
**validates** the Prometheus exposition with
:func:`repro.obs.parse_prometheus_text` before trusting the JSON form.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..errors import ReproError
from ..obs import HistogramSet, parse_prometheus_text
from .corpus import Corpus
from .workload import RequestSpec, Workload

__all__ = ["LoadClient", "LoadResult", "RequestRecord", "scrape_metrics"]

OUTCOMES = ("ok", "rejected", "error", "refused", "transport")

#: Failures proving the request never reached the application: refused
#: outright, or reset/closed before a single response byte
#: (``RemoteDisconnected`` subclasses ``ConnectionResetError``).
_NEVER_REACHED = (
    ConnectionRefusedError,
    ConnectionResetError,
    BrokenPipeError,
)


@dataclass
class RequestRecord:
    """Everything observed about one sent request."""

    index: int
    algorithm: str
    outcome: str
    latency_s: float
    status: Optional[int] = None
    trace_id: str = ""
    source: str = ""  # computed | memory | disk | inflight ("" if n/a)
    error: Optional[str] = None


@dataclass
class LoadResult:
    """One finished load run: records, client histograms, wall clock."""

    records: List[RequestRecord]
    hists: HistogramSet
    elapsed_s: float
    concurrency: int
    metrics_before: Optional[Dict[str, Any]] = None
    metrics_after: Optional[Dict[str, Any]] = None

    def count(self, outcome: str) -> int:
        return sum(1 for r in self.records if r.outcome == outcome)

    def by_source(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.records:
            if r.outcome == "ok" and r.source:
                out[r.source] = out.get(r.source, 0) + 1
        return out

    @property
    def responses(self) -> int:
        """Requests that received *any* HTTP response from the server."""
        return sum(1 for r in self.records if r.status is not None)


def _normalise_url(url: str) -> str:
    url = url.rstrip("/")
    if not url.startswith(("http://", "https://")):
        url = "http://" + url
    return url


def scrape_metrics(base_url: str, timeout_s: float = 30.0) -> Dict[str, Any]:
    """The JSON ``/metrics`` document of one scrape.

    The Prometheus text form is fetched too and validated with
    :func:`repro.obs.parse_prometheus_text` — a malformed exposition is
    a :class:`ReproError` here, not a silently skipped cross-check.
    """
    base = _normalise_url(base_url)
    try:
        with urllib.request.urlopen(
            base + "/metrics", timeout=timeout_s
        ) as response:
            doc = json.loads(response.read())
        with urllib.request.urlopen(
            base + "/metrics?format=prometheus", timeout=timeout_s
        ) as response:
            text = response.read().decode("utf-8")
    except (OSError, urllib.error.URLError, ValueError) as exc:
        raise ReproError(f"cannot scrape {base}/metrics: {exc}") from None
    try:
        parse_prometheus_text(text)
    except ValueError as exc:
        raise ReproError(
            f"{base}/metrics?format=prometheus is not valid Prometheus "
            f"exposition: {exc}"
        ) from None
    return doc


class LoadClient:
    """Drives a workload at a server and records per-request telemetry."""

    def __init__(
        self,
        base_url: str,
        corpus: Corpus,
        workload: Workload,
        timeout_s: float = 120.0,
    ):
        if len(corpus) != workload.corpus_size:
            raise ReproError(
                f"workload was built for a corpus of "
                f"{workload.corpus_size}, got {len(corpus)} entries"
            )
        self.base_url = _normalise_url(base_url)
        self.corpus = corpus
        self.workload = workload
        self.timeout_s = float(timeout_s)
        self.hists = HistogramSet()
        self._run_nonce = uuid.uuid4().hex[:8]
        self._lock = threading.Lock()
        self._records: List[RequestRecord] = []

    # ------------------------------------------------------------------
    def _trace_id(self, index: int) -> str:
        return f"loadgen-{self._run_nonce}-{index:06d}"

    def _send_one(self, spec: RequestSpec) -> RequestRecord:
        entry = self.corpus[spec.entry_index]
        body = json.dumps(
            {
                "netlist": entry.netlist,
                "algorithm": spec.algorithm,
                "seed": spec.seed,
            }
        ).encode("utf-8")
        trace_id = self._trace_id(spec.index)
        request = urllib.request.Request(
            self.base_url + "/partition",
            data=body,
            headers={
                "Content-Type": "application/json",
                "X-Trace-Id": trace_id,
            },
        )
        record = RequestRecord(
            index=spec.index,
            algorithm=spec.algorithm,
            outcome="transport",
            latency_s=0.0,
            trace_id=trace_id,
        )
        start = time.perf_counter()
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                payload = json.loads(response.read())
            record.status = 200
            record.outcome = "ok"
            record.source = str(payload.get("source", ""))
        except urllib.error.HTTPError as exc:
            record.status = exc.code
            try:
                detail = json.loads(exc.read()).get("error", "")
            except (ValueError, OSError):
                detail = ""
            record.error = detail or f"HTTP {exc.code}"
            record.outcome = "rejected" if exc.code == 503 else "error"
        except urllib.error.URLError as exc:
            reason = getattr(exc, "reason", exc)
            record.outcome = (
                "refused" if isinstance(reason, _NEVER_REACHED) else "transport"
            )
            record.error = f"{type(reason).__name__}: {reason}"
        except _NEVER_REACHED as exc:
            # Reset/closed with no response byte: the server never took
            # the request (e.g. it sat in the listen backlog when a
            # drain closed the socket).
            record.outcome = "refused"
            record.error = f"{type(exc).__name__}: {exc}"
        except (
            OSError, socket.timeout, ValueError, http.client.HTTPException
        ) as exc:
            record.outcome = "transport"
            record.error = f"{type(exc).__name__}: {exc}"
        record.latency_s = time.perf_counter() - start
        self.hists.observe(
            "loadgen.request.duration_seconds",
            record.latency_s,
            algorithm=record.algorithm,
            outcome=record.outcome,
        )
        if record.outcome == "ok" and record.source:
            self.hists.observe(
                "loadgen.serve.duration_seconds",
                record.latency_s,
                source=record.source,
            )
        with self._lock:
            self._records.append(record)
        return record

    # ------------------------------------------------------------------
    def run_closed(
        self, duration_s: float, concurrency: int
    ) -> LoadResult:
        """Closed loop: ``concurrency`` workers, back-to-back requests.

        Workers share one global schedule cursor, so the *sequence* of
        request specs is the workload's deterministic schedule even
        though which worker sends which request is timing-dependent.
        """
        if concurrency < 1:
            raise ReproError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        if duration_s <= 0:
            raise ReproError(
                f"duration must be > 0 seconds, got {duration_s}"
            )
        cursor = iter(range(1 << 62))
        cursor_lock = threading.Lock()
        run_start = time.perf_counter()
        deadline = run_start + duration_s

        def worker() -> None:
            while time.perf_counter() < deadline:
                with cursor_lock:
                    index = next(cursor)
                record = self._send_one(self.workload.spec(index))
                if record.outcome == "refused":
                    return  # listener is gone; stop offering load

        threads = [
            threading.Thread(target=worker, daemon=True, name=f"loadgen-{i}")
            for i in range(concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(duration_s + self.timeout_s + 30.0)
        elapsed = time.perf_counter() - run_start
        with self._lock:
            records = sorted(self._records, key=lambda r: r.index)
            self._records = []
        return LoadResult(
            records=records,
            hists=self.hists,
            elapsed_s=elapsed,
            concurrency=concurrency,
        )
