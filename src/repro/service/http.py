"""Stdlib-only HTTP JSON API over the partition engine.

A :class:`ThreadingHTTPServer` (one thread per connection, zero
dependencies beyond the standard library) exposing:

* ``POST /partition`` — body carries the netlist and request config::

      {"netlist": {...},            # repro-hypergraph-v1 JSON document
       "net": "...",                # OR: NET text format (one of the two)
       "algorithm": "ig-match",     # optional request fields ...
       "seed": 0,
       "cache": true,               # false forces a fresh compute
       "async": false,              # true -> 202 + job id
       "priority": 0, "max_retries": 0, "deadline_s": null}

  Synchronous requests return ``{"fingerprint", "cached", "source",
  "trace_id", "duration_s", "result": {...}}``; ``"async": true``
  returns ``{"job": "<id>", "trace_id": ...}`` with status 202.
* ``GET /jobs/<id>`` — the job's status/result record (404 unknown).
* ``DELETE /jobs/<id>`` — cancel a still-pending job.
* ``GET /healthz`` — liveness: version, uptime, worker config.  Always
  200 while the process can answer at all.
* ``GET /readyz`` — readiness: 200 only when the disk cache directory
  is writable (probed with a real write) and the job queue depth is
  within ``--ready-queue-bound``; 503 with per-check details otherwise.
* ``GET /metrics`` — content negotiated.  JSON by default; the
  Prometheus text exposition (0.0.4) when the client sends
  ``Accept: text/plain`` / ``application/openmetrics-text`` or asks
  explicitly with ``?format=prometheus``.  ``?format=json`` always
  wins back the JSON document.
* ``GET /debug/slow`` — the slow-request exemplar ring buffer (full
  span trees of every request over the engine's slow threshold), JSON
  by default, a rendered flame view with ``?format=html``.

**Request-scoped tracing**: every request gets a ``trace_id`` at
ingress (a client-supplied ``X-Trace-Id`` header is honoured, otherwise
one is minted), echoed back in the ``X-Trace-Id`` response header and
threaded through the engine so spans, jobs, and slow-log exemplars are
attributable to it.

**Structured access log**: one JSON line per handled request —
``{"type": "access", "time", "trace_id", "method", "path", "status",
"bytes", "duration_s"}`` plus ``source``/``cached`` provenance on
partition serves — written to stderr or ``--access-log PATH``.
Handler errors produce ``{"type": "error", ...}`` lines which are
**never** suppressed; ``--quiet`` silences only the access entries.

**Backpressure**: ``POST /partition`` answers ``429`` with a
``Retry-After`` header (and a ``service.rejected`` counter increment
plus an access-log line with ``rejected: true``) whenever the job
queue depth exceeds ``--ready-queue-bound`` — the same bound that
flips ``/readyz`` to 503 — instead of accepting work unboundedly.

**Graceful drain**: ``repro-serve`` handles SIGTERM/SIGINT by closing
the listener, answering requests that race in on open connections
with ``503 draining``, waiting (bounded by ``--drain-timeout``) for
every in-flight request and queued job to finish, then flushing and
closing the access log.  :meth:`_Server.drain` is the programmatic
form.

Errors are always JSON: ``{"error": "<one line>"}`` with 400 for bad
requests, 404 for unknown routes/jobs, 405 for wrong methods, 429 for
backpressure rejections, 500 (with the trace id) for handler crashes.
The ``repro-serve`` console script (:func:`serve_main`) is the
deployment entry point.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, IO, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..errors import ReproError
from ..hypergraph import Hypergraph, from_json, loads_net
from ..obs import render_prometheus, render_slow_html
from ..obs.trace import new_trace_id
from ..parallel import ParallelConfig, resolve_parallel
from .cache import ResultCache
from .engine import PartitionEngine, PartitionRequest
from .sessions import SessionMissError

__all__ = ["AccessLog", "create_server", "serve_main"]

#: Request bodies above this size are rejected up front (64 MiB is far
#: beyond any paper-scale netlist; it only guards the server's memory).
_MAX_BODY_BYTES = 64 * 1024 * 1024

_REQUEST_FIELDS = ("algorithm", "seed", "restarts", "split_stride", "starts")

#: Every key a ``POST /partition`` body may carry.  Anything else is a
#: 400 — silently ignoring a typo like ``retries`` would accept the
#: request while quietly not doing what the caller asked.
_BODY_FIELDS = frozenset(_REQUEST_FIELDS) | {
    "netlist", "net", "cache", "async", "priority", "max_retries",
    "deadline_s",
}

#: Every key a ``POST /partition/delta`` body may carry.
_DELTA_BODY_FIELDS = frozenset(_REQUEST_FIELDS) | {"base", "delta"}

#: Inbound ``X-Trace-Id`` values must look like ids, not payloads.
_TRACE_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,64}$")


def _parse_body(doc: Dict[str, Any]) -> Tuple[Hypergraph, PartitionRequest]:
    """Extract the hypergraph and request from a ``POST /partition`` body."""
    if not isinstance(doc, dict):
        raise ReproError("request body must be a JSON object")
    unknown = sorted(set(doc) - _BODY_FIELDS)
    if unknown:
        raise ReproError(
            f"unknown request field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(_BODY_FIELDS))})"
        )
    has_json = "netlist" in doc
    has_net = "net" in doc
    if has_json == has_net:
        raise ReproError(
            "give exactly one of 'netlist' (JSON document) or "
            "'net' (NET text)"
        )
    if has_json:
        h = from_json(doc["netlist"])
    else:
        if not isinstance(doc["net"], str):
            raise ReproError("'net' must be a string in NET text format")
        h = loads_net(doc["net"])
    config = {k: doc[k] for k in _REQUEST_FIELDS if k in doc}
    try:
        request = PartitionRequest.from_mapping(config)
    except TypeError as exc:
        raise ReproError(f"bad request config: {exc}") from None
    return h, request


def _job_options(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The async-job knobs of a ``POST /partition`` body, validated."""
    deadline = doc.get("deadline_s")
    try:
        return {
            "priority": int(doc.get("priority", 0)),
            "max_retries": int(doc.get("max_retries", 0)),
            "deadline_s": None if deadline is None else float(deadline),
        }
    except (TypeError, ValueError, OverflowError) as exc:
        raise ReproError(f"bad async job option: {exc}") from None


#: Known literal routes for the ``route`` histogram label; ``/jobs/<id>``
#: collapses to one label value so per-job ids cannot explode the series
#: cardinality, and unknown paths share a single ``other`` bucket.
_LITERAL_ROUTES = frozenset(
    {
        "/partition",
        "/partition/delta",
        "/healthz",
        "/readyz",
        "/metrics",
        "/debug/slow",
    }
)


def _route_label(path: str) -> str:
    if path in _LITERAL_ROUTES:
        return path
    if path.startswith("/jobs/"):
        return "/jobs/{id}"
    return "other"


class AccessLog:
    """Thread-safe JSON-lines structured log for the HTTP layer.

    Two entry types share the stream: ``access`` (one line per handled
    request) and ``error`` (handler crashes, connection faults).
    ``quiet`` suppresses *access* entries only — errors are always
    written, which is the whole point of replacing the old silenced
    ``log_message`` path.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        path: Optional[str] = None,
        quiet: bool = False,
    ):
        self.quiet = quiet
        self._lock = threading.Lock()
        self._owns_stream = path is not None
        if path is not None:
            self._stream: IO[str] = open(path, "a", encoding="utf-8")
        else:
            self._stream = stream if stream is not None else sys.stderr

    def _write(self, entry: Dict[str, Any]) -> None:
        line = json.dumps(entry, sort_keys=True)
        with self._lock:
            try:
                self._stream.write(line + "\n")
                self._stream.flush()
            except (OSError, ValueError):  # closed/broken stream
                pass

    def access(self, **fields: Any) -> None:
        if self.quiet:
            return
        entry = {
            "type": "access",
            "time": datetime.now(timezone.utc).isoformat(
                timespec="milliseconds"
            ),
        }
        entry.update(fields)
        self._write(entry)

    def error(self, **fields: Any) -> None:
        entry = {
            "type": "error",
            "time": datetime.now(timezone.utc).isoformat(
                timespec="milliseconds"
            ),
        }
        entry.update(fields)
        self._write(entry)

    def close(self) -> None:
        if self._owns_stream:
            try:
                self._stream.close()
            except OSError:  # pragma: no cover - close race
                pass


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's engine.  One instance per request."""

    server_version = "repro-serve/" + __version__
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def _send_json(
        self,
        status: int,
        doc: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        self._send_bytes(
            status, body, "application/json", extra_headers=extra_headers
        )

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._status = status
        self._bytes_sent = len(body)
        # Log before any byte goes out, so a client that reads the log
        # on receipt of its reply finds the line.
        self._log_request()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", self._trace_id)
        if extra_headers:
            for header, value in extra_headers.items():
                self.send_header(header, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def log_message(self, format: str, *args: Any) -> None:
        # Replaced by the structured access log written in _handle();
        # BaseHTTPRequestHandler's per-request stderr line is redundant.
        return

    def log_error(self, format: str, *args: Any) -> None:
        # http.server routes protocol-level errors here — keep them in
        # the structured stream instead of dropping them (the old
        # quiet-mode log_message swallowed these entirely).
        self.server.access_log.error(
            where="protocol",
            client=self.address_string(),
            error=format % args,
        )

    # ------------------------------------------------------------------
    def _log_request(self) -> None:
        """Observe the request's duration and write its access-log line,
        once per request."""
        if self._logged:
            return
        self._logged = True
        duration = time.perf_counter() - self._start
        self.server.engine.hists.observe(
            "http.request.duration_seconds",
            duration,
            method=self._method,
            route=_route_label(self._route_path),
        )
        entry: Dict[str, Any] = {
            "trace_id": self._trace_id,
            "method": self._method,
            "path": self.path,
            "status": self._status,
            "bytes": self._bytes_sent,
            "duration_s": round(duration, 6),
        }
        if self._provenance is not None:
            entry["source"], entry["cached"] = self._provenance
        if self._status == 429:
            entry["rejected"] = True
        self.server.access_log.access(**entry)

    def _handle(self, method: str, fn: Any) -> None:
        """One request: trace ingress, dispatch, access log, histogram."""
        header = (self.headers.get("X-Trace-Id") or "").strip()
        self._trace_id = (
            header if _TRACE_ID_RE.match(header) else new_trace_id()
        )
        self._method = method
        self._status = 0
        self._bytes_sent = 0
        self._provenance: Optional[Tuple[str, bool]] = None
        self._logged = False
        split = urlsplit(self.path)
        self._route_path = split.path
        self._query = {
            k: v[-1] for k, v in parse_qs(split.query).items()
        }
        self._start = time.perf_counter()
        self.server.request_started()
        try:
            if self.server.draining:
                # The listener is closed; this request arrived on an
                # already-open (keep-alive) connection after drain
                # started, so it was never accepted work.
                self.close_connection = True
                self._send_json(
                    503,
                    {"error": "server is draining"},
                    extra_headers={"Retry-After": "1"},
                )
            else:
                fn()
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-response; nothing left to send.
            self._status = self._status or 499
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self.server.access_log.error(
                trace_id=self._trace_id,
                method=method,
                path=self.path,
                error=f"{type(exc).__name__}: {exc}",
            )
            try:
                self._send_error_json(
                    500,
                    f"internal error ({type(exc).__name__}); "
                    f"trace_id {self._trace_id}",
                )
            except OSError:  # pragma: no cover - response already dead
                pass
        finally:
            # A request that sent a reply was logged before it; this
            # logs the ones that sent nothing.
            self._log_request()
            self.server.request_finished()

    def do_GET(self) -> None:
        self._handle("GET", self._get)

    def do_POST(self) -> None:
        self._handle("POST", self._post)

    def do_DELETE(self) -> None:
        self._handle("DELETE", self._delete)

    # ------------------------------------------------------------------
    def _get(self) -> None:
        engine: PartitionEngine = self.server.engine
        path = self._route_path
        if path == "/healthz":
            parallel = engine.parallel or ParallelConfig()
            self._send_json(
                200,
                {
                    "status": "ok",
                    "version": __version__,
                    "uptime_s": round(
                        time.monotonic() - self.server.started_at, 3
                    ),
                    "workers": parallel.effective_workers(),
                    "backend": parallel.backend,
                    "cache": engine.cache is not None,
                },
            )
            return
        if path == "/readyz":
            self._readyz(engine)
            return
        if path == "/metrics":
            self._metrics(engine)
            return
        if path == "/debug/slow":
            self._debug_slow(engine)
            return
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            job = engine.scheduler.get(job_id)
            if job is None:
                self._send_error_json(404, f"unknown job {job_id!r}")
                return
            self._send_json(200, job.record())
            return
        self._send_error_json(404, f"unknown path {path!r}")

    def _readyz(self, engine: PartitionEngine) -> None:
        """Readiness: can this instance *usefully* take traffic now?

        Liveness (``/healthz``) answers "is the process up"; this
        answers "will a request actually succeed" — a read-only cache
        directory or a backed-up job queue should pull the instance out
        of rotation, not keep silently degrading.
        """
        checks: Dict[str, Dict[str, Any]] = {}
        if engine.cache is not None:
            ok, detail = engine.cache.check_disk_writable()
            checks["cache"] = {"ok": ok, "detail": detail}
        else:
            checks["cache"] = {"ok": True, "detail": "no cache configured"}
        depth = engine.queue_depth()
        bound = self.server.ready_queue_bound
        checks["jobs"] = {
            "ok": depth <= bound,
            "detail": f"{depth} pending (bound {bound})",
        }
        ready = all(check["ok"] for check in checks.values())
        self._send_json(
            200 if ready else 503,
            {"status": "ready" if ready else "unready", "checks": checks},
        )

    def _metrics(self, engine: PartitionEngine) -> None:
        doc = engine.metrics()
        fmt = self._query.get("format", "").lower()
        accept = self.headers.get("Accept", "")
        want_prometheus = fmt in ("prometheus", "prom", "text") or (
            not fmt
            and ("text/plain" in accept or "openmetrics" in accept)
        )
        if want_prometheus:
            self._send_bytes(
                200,
                render_prometheus(doc).encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_json(200, doc)

    def _debug_slow(self, engine: PartitionEngine) -> None:
        entries = engine.slow.entries()
        if self._query.get("format", "").lower() == "html":
            html = render_slow_html(entries)
            self._send_bytes(
                200, html.encode("utf-8"), "text/html; charset=utf-8"
            )
            return
        self._send_json(
            200,
            {
                "threshold_s": engine.slow.threshold_s,
                "capacity": engine.slow.capacity,
                "entries": entries,
            },
        )

    def _post(self) -> None:
        engine: PartitionEngine = self.server.engine
        if self._route_path not in ("/partition", "/partition/delta"):
            self._send_error_json(
                404, f"unknown path {self._route_path!r}"
            )
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error_json(400, "bad Content-Length header")
            return
        if length <= 0:
            self._send_error_json(400, "empty request body")
            return
        if length > _MAX_BODY_BYTES:
            self._send_error_json(
                400, f"request body exceeds {_MAX_BODY_BYTES} bytes"
            )
            return
        raw = self.rfile.read(length)
        depth = engine.queue_depth()
        if depth > self.server.ready_queue_bound:
            # Backpressure: the job queue is past the same bound that
            # already flips /readyz to 503 — shed the request now with
            # an honest retry hint instead of accepting unboundedly.
            # (The body was read above so the connection stays clean.)
            engine.reject()
            self._send_json(
                429,
                {
                    "error": (
                        f"job queue depth {depth} exceeds bound "
                        f"{self.server.ready_queue_bound}; retry later"
                    ),
                    "queue_depth": depth,
                },
                extra_headers={"Retry-After": "1"},
            )
            return
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self._send_error_json(400, f"invalid JSON body: {exc}")
            return
        if self._route_path == "/partition/delta":
            self._post_delta(engine, doc)
            return
        try:
            h, request = _parse_body(doc)
            options = _job_options(doc) if doc.get("async") else None
        except ReproError as exc:
            self._send_error_json(400, str(exc))
            return
        use_cache = bool(doc.get("cache", True))
        if options is not None:
            job = engine.submit(
                h,
                request,
                use_cache=use_cache,
                trace_id=self._trace_id,
                **options,
            )
            self._send_json(
                202,
                {
                    "job": job.id,
                    "status": job.status,
                    "trace_id": self._trace_id,
                },
            )
            return
        try:
            served = engine.partition(
                h, request, use_cache=use_cache, trace_id=self._trace_id
            )
        except ReproError as exc:
            self._send_error_json(400, str(exc))
            return
        self._provenance = (served.source, served.cached)
        self._send_json(200, served.response())

    def _post_delta(self, engine: PartitionEngine, doc: Any) -> None:
        """``POST /partition/delta``: base fingerprint + delta → warm
        result and the edited netlist's new fingerprint."""
        if not isinstance(doc, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return
        unknown = sorted(set(doc) - _DELTA_BODY_FIELDS)
        if unknown:
            self._send_error_json(
                400,
                f"unknown request field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(_DELTA_BODY_FIELDS))})",
            )
            return
        base = doc.get("base")
        if not isinstance(base, str) or not base:
            self._send_error_json(
                400,
                "'base' must be a fingerprint string from a prior "
                "POST /partition response",
            )
            return
        delta_doc = doc.get("delta")
        if not isinstance(delta_doc, dict):
            self._send_error_json(
                400, "'delta' must be a netlist-delta JSON object"
            )
            return
        config = {k: doc[k] for k in _REQUEST_FIELDS if k in doc}
        try:
            request = PartitionRequest.from_mapping(config)
        except TypeError as exc:
            self._send_error_json(400, f"bad request config: {exc}")
            return
        try:
            served = engine.partition_delta(
                base, delta_doc, request, trace_id=self._trace_id
            )
        except SessionMissError as exc:
            self._send_json(
                404,
                {
                    "error": str(exc),
                    "reason": exc.reason,
                    "base": exc.fingerprint,
                },
            )
            return
        except ReproError as exc:
            self._send_error_json(400, str(exc))
            return
        self._provenance = (served.source, served.cached)
        self._send_json(200, served.response())

    def _delete(self) -> None:
        engine: PartitionEngine = self.server.engine
        path = self._route_path
        if not path.startswith("/jobs/"):
            self._send_error_json(404, f"unknown path {path!r}")
            return
        job_id = path[len("/jobs/"):]
        if engine.scheduler.get(job_id) is None:
            self._send_error_json(404, f"unknown job {job_id!r}")
            return
        cancelled = engine.scheduler.cancel(job_id)
        # Re-read after cancel: a pending job is CANCELLED outright, a
        # running one only CANCELLING — report the honest state rather
        # than implying the work already stopped.
        job = engine.scheduler.get(job_id)
        status = job.status if job is not None else "cancelled"
        self._send_json(
            200, {"job": job_id, "cancelled": cancelled, "status": status}
        )


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Drain does its own bounded in-flight accounting; joining handler
    #: threads in server_close() would make shutdown unbounded again.
    block_on_close = False

    def __init__(
        self,
        address,
        engine: PartitionEngine,
        access_log: Optional[AccessLog] = None,
        ready_queue_bound: int = 64,
    ):
        super().__init__(address, _Handler)
        self.engine = engine
        self.access_log = (
            access_log if access_log is not None else AccessLog(quiet=True)
        )
        self.ready_queue_bound = int(ready_queue_bound)
        self.started_at = time.monotonic()
        self.draining = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)

    # -- in-flight request accounting (drives graceful drain) ----------
    def request_started(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def request_finished(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Graceful shutdown: stop accepts, finish in-flight work, close.

        Stops the accept loop (new connections are refused; requests on
        already-open connections get 503), then waits — bounded by
        ``timeout_s`` — for every in-flight HTTP request to complete
        and the job scheduler to finish pending/running jobs.  Finally
        closes the listener and flushes/closes the access log.

        Returns ``True`` when everything finished inside the budget,
        ``False`` when the timeout expired with work still running
        (the work is abandoned to daemon threads, as before).
        """
        self.draining = True
        self.shutdown()  # blocks until the serve_forever loop exits
        self._drain_backlog()
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        clean = True
        with self._inflight_lock:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    clean = False
                    break
                self._idle.wait(remaining)
        while clean and self.engine.jobs_outstanding() > 0:
            if time.monotonic() >= deadline:
                clean = False
                break
            time.sleep(0.02)
        self.server_close()  # closes the socket and the access log
        return clean

    def _drain_backlog(self) -> int:
        """Answer connections the kernel had already completed into the
        listen backlog when the accept loop stopped.

        Those clients connected successfully before the listener closed,
        so they deserve an honest ``503 Retry-After`` (``draining`` is
        already set) rather than the TCP reset ``server_close()`` would
        hand them.  Served synchronously — no handler threads to race
        the in-flight accounting — with a one-second socket timeout so a
        connected-but-silent peer cannot stall the drain."""
        served = 0
        try:
            self.socket.setblocking(False)
        except OSError:
            return served
        while True:
            try:
                request, client_address = self.socket.accept()
            except (BlockingIOError, OSError):
                break
            served += 1
            try:
                request.settimeout(1.0)
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
        return served

    def handle_error(self, request, client_address) -> None:
        # Connection-layer failures (the per-request 500 path never
        # reaches here).  Client disconnects are routine, not errors.
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return
        self.access_log.error(
            where="connection",
            client=f"{client_address[0]}:{client_address[1]}",
            error=f"{type(exc).__name__}: {exc}",
        )

    def server_close(self) -> None:
        super().server_close()
        self.access_log.close()


def create_server(
    engine: Optional[PartitionEngine] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    access_log: Optional[AccessLog] = None,
    ready_queue_bound: int = 64,
) -> _Server:
    """Build a ready-to-run server (``port=0`` picks an ephemeral port).

    Call ``serve_forever()`` on the result (typically in a thread for
    tests) and ``shutdown()`` / ``server_close()`` to stop it.  The
    bound port is ``server.server_address[1]``.

    ``quiet`` suppresses per-request *access* entries on the default
    stderr log; error entries are always written.  Pass an
    :class:`AccessLog` to control the destination (it overrides
    ``quiet``).
    """
    if engine is None:
        engine = PartitionEngine(cache=ResultCache())
    if access_log is None:
        access_log = AccessLog(quiet=quiet)
    return _Server(
        (host, port),
        engine,
        access_log=access_log,
        ready_queue_bound=ready_queue_bound,
    )


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-serve`` — run the partitioning service until interrupted."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve ratio-cut partitioning over HTTP with "
        "content-addressed result caching.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8377,
        help="listen port (0 = ephemeral; default 8377)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="disk cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--no-disk-cache", action="store_true",
        help="keep results only in the in-memory LRU",
    )
    parser.add_argument(
        "--memory-budget", type=int, default=None, metavar="BYTES",
        help="in-memory cache byte budget (default 32 MiB)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker pool size for the partitioners' parallel fan-outs: "
        "1 runs inline, 2 or more on a process pool "
        "(default: $REPRO_WORKERS or 1)",
    )
    parser.add_argument(
        "--access-log", metavar="PATH", default=None,
        help="append JSON-lines access/error log entries to PATH "
        "(default: stderr)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-request access log entries "
        "(errors are always logged)",
    )
    parser.add_argument(
        "--slow-threshold", type=float, default=1.0, metavar="SECONDS",
        help="requests at least this slow leave a full-trace exemplar "
        "at GET /debug/slow (default 1.0)",
    )
    parser.add_argument(
        "--memprof", action="store_true",
        help="attribute Python-heap memory to every request's span tree "
        "(tracemalloc; measurably slows allocation-heavy compute) — "
        "slow-log exemplars and /metrics gain memory detail",
    )
    parser.add_argument(
        "--ready-queue-bound", type=int, default=64, metavar="N",
        help="GET /readyz reports unready — and POST /partition starts "
        "returning 429 with Retry-After — when more than N jobs are "
        "queued (default 64)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT: stop accepting, wait up to this long "
        "for in-flight requests and queued jobs to finish, then close "
        "(default 10.0)",
    )
    args = parser.parse_args(argv)

    cache_kwargs: Dict[str, Any] = {
        "disk_dir": args.cache_dir,
        "use_disk": not args.no_disk_cache,
    }
    if args.memory_budget is not None:
        cache_kwargs["memory_budget"] = args.memory_budget
    try:
        engine = PartitionEngine(
            cache=ResultCache(**cache_kwargs),
            parallel=resolve_parallel(args.workers),
            slow_threshold_s=args.slow_threshold,
            memprof=args.memprof,
        )
        access_log = AccessLog(path=args.access_log, quiet=args.quiet)
        server = create_server(
            engine,
            host=args.host,
            port=args.port,
            access_log=access_log,
            ready_queue_bound=args.ready_queue_bound,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    print(
        f"repro-serve {__version__} listening on http://{host}:{port} "
        f"(POST /partition, GET /jobs/<id>, /healthz, /readyz, /metrics, "
        f"/debug/slow)",
        file=sys.stderr,
    )

    # Graceful drain: SIGTERM/SIGINT stop the accept loop, let in-flight
    # requests and queued jobs finish (bounded by --drain-timeout), then
    # flush and close the access log.  serve_forever runs in a worker
    # thread so the main thread stays free to receive signals.
    stop = threading.Event()

    def _on_signal(signum: int, frame: Any) -> None:  # pragma: no cover
        stop.set()

    import signal

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - exotic host
            pass
    serve_thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    serve_thread.start()
    try:
        while not stop.wait(0.2):
            pass
    except KeyboardInterrupt:
        pass
    print(
        f"draining (up to {args.drain_timeout:g}s for in-flight work)",
        file=sys.stderr,
    )
    clean = server.drain(args.drain_timeout)
    serve_thread.join(5.0)
    if not clean:
        print(
            "drain timeout expired with work still in flight",
            file=sys.stderr,
        )
        return 1
    print("drained cleanly", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(serve_main())
