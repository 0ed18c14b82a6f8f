"""Stdlib-only HTTP JSON API over the partition engine.

A :class:`ThreadingHTTPServer` (one thread per connection, zero
dependencies beyond the standard library) exposing:

* ``POST /partition`` — body carries the netlist and request config::

      {"netlist": {...},            # repro-hypergraph-v1 JSON document
       "net": "...",                # OR: NET text format (one of the two)
       "algorithm": "ig-match",     # optional request fields ...
       "seed": 0,
       "cache": true}               # false forces a fresh compute

  and returns ``{"fingerprint", "cached", "source", "trace_id",
  "duration_s", "result": {...}}``.  Every request is served on the
  thread that received it.
* ``POST /partition/delta`` — a netlist delta against a served base's
  fingerprint, partitioned warm (see ``docs/eco.md``).
* ``GET /healthz`` — liveness: version, uptime, worker config.  Always
  200 while the process can answer at all.
* ``GET /readyz`` — readiness: 200 only when the disk cache directory
  is writable (probed with a real write); 503 with the check's details
  otherwise.
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
threaded through the engine so spans and slow-log exemplars are
attributable to it.

**Structured access log**: one JSON line per handled request —
``{"type": "access", "time", "trace_id", "method", "path", "status",
"bytes", "duration_s"}`` plus ``source``/``cached`` provenance on
partition serves — written to stderr or ``--access-log PATH`` before
the reply's first byte.  Handler errors produce ``{"type": "error",
...}`` lines which are **never** suppressed; ``--quiet`` silences only
the access entries.

**Graceful drain**: ``repro-serve`` handles SIGTERM/SIGINT by closing
the listener, answering the connections queued in its listen backlog
and requests that race in on open connections with ``503 draining``,
waiting for every in-flight request to finish (the backlog answers and
the wait share ``--drain-timeout``, which also cuts off a queued peer
still sending its request), then flushing and closing the access log.
A request that reaches its handler after that gets no reply, only a
closed connection, since its access line could no longer be written.
:meth:`_Server.drain` is the programmatic form.

Errors are always JSON: ``{"error": "<one line>"}`` with 400 for bad
requests, 404 for unknown paths, 405 (with an ``Allow`` header) for a
known path asked with another method, 503 while draining, and 500
(with the trace id) for handler crashes.  The ``repro-serve`` console
script (:func:`serve_main`) is the deployment entry point;
``python -m repro.service`` runs the same function.
"""

from __future__ import annotations

import argparse
import json
import re
import socket
import sys
import threading
import time
from dataclasses import fields
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, FrozenSet, IO, Optional, Sequence, Tuple
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

_REQUEST_FIELDS = tuple(f.name for f in fields(PartitionRequest))

#: Every key a ``POST /partition`` body may carry.  Anything else is a
#: 400 — silently ignoring a typo like ``retries`` would accept the
#: request while quietly not doing what the caller asked.
_BODY_FIELDS = frozenset(_REQUEST_FIELDS) | {"netlist", "net", "cache"}

#: Every key a ``POST /partition/delta`` body may carry.
_DELTA_BODY_FIELDS = frozenset(_REQUEST_FIELDS) | {"base", "delta"}

#: Inbound ``X-Trace-Id`` values must look like ids, not payloads.
_TRACE_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,64}$")

#: Every path the server answers and, per method, the handler that
#: serves it.  A known path asked with another method is a 405 whose
#: ``Allow`` header lists the methods here; any other path is a 404.
#: The paths are also the ``route`` label values of the HTTP latency
#: histogram, where every unknown path shares the one value ``other``
#: so stray paths cannot grow the series count.
_ROUTES: Dict[str, Dict[str, str]] = {
    "/partition": {"POST": "_partition"},
    "/partition/delta": {"POST": "_partition_delta"},
    "/healthz": {"GET": "_healthz"},
    "/readyz": {"GET": "_readyz"},
    "/metrics": {"GET": "_metrics"},
    "/debug/slow": {"GET": "_debug_slow"},
}


def _checked_body(doc: Any, known: FrozenSet[str]) -> Dict[str, Any]:
    """``doc`` as a request-body object carrying only ``known`` keys."""
    if not isinstance(doc, dict):
        raise ReproError("request body must be a JSON object")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ReproError(
            f"unknown request field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    return doc


def _request_config(doc: Dict[str, Any]) -> PartitionRequest:
    config = {k: doc[k] for k in _REQUEST_FIELDS if k in doc}
    try:
        return PartitionRequest.from_mapping(config)
    except TypeError as exc:
        raise ReproError(f"bad request config: {exc}") from None


def _parse_body(doc: Any) -> Tuple[Hypergraph, PartitionRequest]:
    """Extract the hypergraph and request from a ``POST /partition`` body."""
    doc = _checked_body(doc, _BODY_FIELDS)
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
    return h, _request_config(doc)


def _parse_delta_body(
    doc: Any,
) -> Tuple[str, Dict[str, Any], PartitionRequest]:
    """Extract the base fingerprint, the delta document and the request
    from a ``POST /partition/delta`` body."""
    doc = _checked_body(doc, _DELTA_BODY_FIELDS)
    base = doc.get("base")
    if not isinstance(base, str) or not base:
        raise ReproError(
            "'base' must be a fingerprint string from a prior "
            "POST /partition response"
        )
    delta = doc.get("delta")
    if not isinstance(delta, dict):
        raise ReproError("'delta' must be a netlist-delta JSON object")
    return base, delta, _request_config(doc)


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
            method=self.command,
            route=self._route_path if self._route_path in _ROUTES else "other",
        )
        entry: Dict[str, Any] = {
            "trace_id": self._trace_id,
            "method": self.command,
            "path": self.path,
            "status": self._status,
            "bytes": self._bytes_sent,
            "duration_s": round(duration, 6),
        }
        if self._provenance is not None:
            entry["source"], entry["cached"] = self._provenance
        self.server.access_log.access(**entry)

    def _handle(self) -> None:
        """One request: trace ingress, dispatch, access log, histogram."""
        header = (self.headers.get("X-Trace-Id") or "").strip()
        self._trace_id = (
            header if _TRACE_ID_RE.match(header) else new_trace_id()
        )
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
        if not self.server.request_started():
            # Drain has closed the access log: a reply now would go out
            # without its line, so the connection closes unanswered.
            self.close_connection = True
            return
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
                self._dispatch()
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-response; nothing left to send.
            self._status = self._status or 499
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self.server.access_log.error(
                trace_id=self._trace_id,
                method=self.command,
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

    # http.server calls ``do_<METHOD>``; every method it is given goes
    # through the route table, so a wrong one is a JSON 405, not an
    # HTML 501.
    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _handle

    def _dispatch(self) -> None:
        """Serve the route, or answer 404 (unknown path) or 405."""
        path = self._route_path
        methods = _ROUTES.get(path)
        if methods is not None and self.command in methods:
            getattr(self, methods[self.command])()
            return
        # Any request body is left unread, so the connection cannot
        # carry another request.
        headers = {"Connection": "close"}
        if methods is None:
            self._send_json(
                404, {"error": f"unknown path {path!r}"}, headers
            )
            return
        headers["Allow"] = ", ".join(sorted(methods))
        self._send_json(
            405,
            {
                "error": f"method {self.command} not allowed on {path} "
                f"(allowed: {headers['Allow']})"
            },
            headers,
        )

    def _read_json(self) -> Any:
        """The request body, parsed; :class:`ReproError` when it is
        missing, too large, or not JSON."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise self._body_refused("bad Content-Length header") from None
        if length <= 0:
            raise self._body_refused("empty request body")
        if length > _MAX_BODY_BYTES:
            raise self._body_refused(
                f"request body exceeds {_MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ReproError(f"invalid JSON body: {exc}") from None

    def _body_refused(self, problem: str) -> ReproError:
        # The body stays unread, so the connection must not carry
        # another request: the body's bytes would be parsed as one.
        self.close_connection = True
        return ReproError(problem)

    # ------------------------------------------------------------------
    def _healthz(self) -> None:
        engine: PartitionEngine = self.server.engine
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

    def _readyz(self) -> None:
        """Readiness: can this instance *usefully* take traffic now?

        Liveness (``/healthz``) answers "is the process up"; this
        answers "will a request actually succeed" — a read-only cache
        directory should pull the instance out of rotation, not keep
        silently degrading.
        """
        cache = self.server.engine.cache
        if cache is not None:
            ok, detail = cache.check_disk_writable()
        else:
            ok, detail = True, "no cache configured"
        self._send_json(
            200 if ok else 503,
            {
                "status": "ready" if ok else "unready",
                "checks": {"cache": {"ok": ok, "detail": detail}},
            },
        )

    def _metrics(self) -> None:
        doc = self.server.engine.metrics()
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

    def _debug_slow(self) -> None:
        slow = self.server.engine.slow
        entries = slow.entries()
        if self._query.get("format", "").lower() == "html":
            html = render_slow_html(entries)
            self._send_bytes(
                200, html.encode("utf-8"), "text/html; charset=utf-8"
            )
            return
        self._send_json(
            200,
            {
                "threshold_s": slow.threshold_s,
                "capacity": slow.capacity,
                "entries": entries,
            },
        )

    def _partition(self) -> None:
        try:
            doc = self._read_json()
            h, request = _parse_body(doc)
            served = self.server.engine.partition(
                h,
                request,
                use_cache=bool(doc.get("cache", True)),
                trace_id=self._trace_id,
            )
        except ReproError as exc:
            self._send_error_json(400, str(exc))
            return
        self._provenance = (served.source, served.cached)
        self._send_json(200, served.response())

    def _partition_delta(self) -> None:
        """``POST /partition/delta``: base fingerprint + delta → warm
        result and the edited netlist's new fingerprint."""
        try:
            base, delta, request = _parse_delta_body(self._read_json())
            served = self.server.engine.partition_delta(
                base, delta, request, trace_id=self._trace_id
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


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: The listen backlog.  socketserver's default of 5 drops the SYN
    #: of a sixth client connecting at once, which then waits out a 1 s
    #: retransmit; load generators open one connection per request.
    request_queue_size = 64
    #: Drain does its own bounded in-flight accounting; joining handler
    #: threads in server_close() would make shutdown unbounded again.
    block_on_close = False

    def __init__(
        self,
        address,
        engine: PartitionEngine,
        access_log: Optional[AccessLog] = None,
    ):
        super().__init__(address, _Handler)
        self.engine = engine
        self.access_log = (
            access_log if access_log is not None else AccessLog(quiet=True)
        )
        self.started_at = time.monotonic()
        self.draining = False
        self._closed = False
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)

    # -- in-flight request accounting (drives graceful drain) ----------
    def request_started(self) -> bool:
        """Count a request in flight; ``False`` (counting nothing) once
        :meth:`drain` has closed the server."""
        with self._inflight_lock:
            if self._closed:
                return False
            self._inflight += 1
            return True

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
        already-open connections get 503), answers the listen backlog,
        then waits for every in-flight HTTP request to complete.  The
        backlog answers and the wait share ``timeout_s``; a queued peer
        still sending its request when it runs out is cut off (see
        :meth:`_drain_backlog`).  Finally closes the listener and
        flushes/closes the access log; a request that starts after that
        gets no reply (:meth:`request_started` returns ``False``).

        Returns ``True`` when everything finished inside the budget,
        ``False`` when the timeout expired with work still running
        (the work is abandoned to daemon threads, as before).
        """
        self.draining = True
        self.shutdown()  # blocks until the serve_forever loop exits
        deadline = time.monotonic() + max(0.0, float(timeout_s))
        self._drain_backlog(deadline)
        clean = True
        with self._inflight_lock:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    clean = False
                    break
                self._idle.wait(remaining)
            self._closed = True
        self.server_close()  # closes the socket and the access log
        return clean

    def _drain_backlog(self, deadline: float) -> int:
        """Answer connections the kernel had already completed into the
        listen backlog when the accept loop stopped.

        Those clients connected successfully before the listener closed,
        so they deserve an honest ``503 Retry-After`` (``draining`` is
        already set) rather than the TCP reset ``server_close()`` would
        hand them.  Served synchronously — no handler threads to race
        the in-flight accounting — each with a socket timeout of at most
        one second, so a connected-but-silent peer cannot stall the
        drain.  The backlog holds up to :attr:`request_queue_size`
        connections; connections still queued at ``deadline`` (the
        drain's budget) get the reset instead.  ``deadline`` also bounds
        each connection as a whole: a timer shuts the socket down at
        ``deadline``, so a peer that trickles its request in, each byte
        inside the read timeout, is cut off there and gets no answer."""
        served = 0
        try:
            self.socket.setblocking(False)
        except OSError:
            return served
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                request, client_address = self.socket.accept()
            except (BlockingIOError, OSError):
                break
            served += 1
            cut = threading.Timer(remaining, _cut, args=(request,))
            try:
                cut.start()
                request.settimeout(min(1.0, remaining))
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                cut.cancel()
                if cut.is_alive():
                    cut.join()
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


def _cut(request: socket.socket) -> None:
    """Shut ``request`` down in both directions, waking a read blocked
    on it; a socket already closed is left as it is."""
    try:
        request.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def create_server(
    engine: Optional[PartitionEngine] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    access_log: Optional[AccessLog] = None,
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
    return _Server((host, port), engine, access_log=access_log)


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
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT: stop accepting, answer queued "
        "connections 503 and wait for in-flight requests to finish, "
        "for up to this long, then close (default 10.0)",
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
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    print(
        f"repro-serve {__version__} listening on http://{host}:{port} "
        f"(POST /partition, /partition/delta; GET /healthz, /readyz, "
        f"/metrics, /debug/slow)",
        file=sys.stderr,
    )

    # Graceful drain: SIGTERM/SIGINT stop the accept loop, let in-flight
    # requests finish (bounded by --drain-timeout), then
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
    # ``import repro`` has loaded this module already, so running it
    # again as __main__ would serve copies of its classes.
    raise SystemExit("run the server with: python -m repro.service")
