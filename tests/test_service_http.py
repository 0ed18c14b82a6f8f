"""HTTP API tests: a real server on an ephemeral port, stdlib client."""

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.hypergraph import to_json
from repro.service import (
    PartitionEngine,
    PartitionRequest,
    ResultCache,
    canonical_result_bytes,
    create_server,
    payload_to_result,
    run_partitioner,
)
from repro.service.http import AccessLog
from tests.conftest import random_hypergraph


@pytest.fixture
def server():
    srv = create_server(
        engine=PartitionEngine(cache=ResultCache(use_disk=False))
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(5)


def call(srv, path, body=None, method=None):
    """One HTTP exchange; returns (status, parsed JSON body)."""
    host, port = srv.server_address[:2]
    url = f"http://{host}:{port}{path}"
    data = (
        json.dumps(body).encode("utf-8") if body is not None else None
    )
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture
def h():
    return random_hypergraph(3, num_modules=12, num_nets=16)


def _netlist(**fields):
    """A small valid JSON netlist document with ``fields`` replaced."""
    doc = {
        "format": "repro-hypergraph-v1",
        "num_modules": 3,
        "nets": [[0, 1], [1, 2]],
    }
    doc.update(fields)
    return doc


class TestHealthAndMetrics:
    def test_healthz(self, server):
        status, doc = call(server, "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["cache"] is True
        assert doc["workers"] >= 1
        assert doc["uptime_s"] >= 0

    def test_metrics_one_miss_then_one_hit(self, server, h):
        body = {"netlist": to_json(h), "algorithm": "fm", "seed": 0}
        call(server, "/partition", body)
        call(server, "/partition", body)
        status, doc = call(server, "/metrics")
        assert status == 200
        assert doc["service"]["service.cache.miss"] == 1
        assert doc["service"]["service.cache.hit"] == 1
        assert doc["service"]["service.computed"] == 1
        assert doc["cache"]["stores"] == 1

    def test_metrics_carry_no_job_queue_series(self, server, h):
        from repro.obs import parse_prometheus_text

        call(server, "/partition", {"netlist": to_json(h), "algorithm": "fm"})
        _, doc = call(server, "/metrics")
        assert "jobs" not in doc
        assert "service.rejected" not in doc["service"]
        assert "service.job.queue_wait_seconds" not in doc["histograms"]
        host, port = server.server_address[:2]
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics?format=prometheus", timeout=30
        ) as response:
            samples = parse_prometheus_text(response.read().decode("utf-8"))
        assert not [
            name
            for name in samples
            if name.startswith(("repro_jobs_", "repro_service_job_"))
            or name.startswith("repro_service_rejected")
        ]

    def test_unknown_path_404(self, server):
        status, doc = call(server, "/nope")
        assert status == 404
        assert "unknown path" in doc["error"]

    def test_post_to_unknown_path_404(self, server):
        status, doc = call(server, "/nope", {"x": 1})
        assert status == 404
        assert "unknown path" in doc["error"]

    def test_readyz_ready(self, server):
        status, doc = call(server, "/readyz")
        assert status == 200
        assert doc["status"] == "ready"
        assert set(doc["checks"]) == {"cache"}
        assert doc["checks"]["cache"]["ok"] is True

    def test_readyz_unready_is_503(self, server):
        server.engine.cache.check_disk_writable = lambda: (
            False,
            "cache dir not writable",
        )
        status, doc = call(server, "/readyz")
        assert status == 503
        assert doc["status"] == "unready"


class TestPartitionEndpoint:
    def test_served_matches_direct_run(self, server, h):
        request = PartitionRequest("ig-match", seed=7)
        direct = canonical_result_bytes(run_partitioner(h, request))
        body = {"netlist": to_json(h), "algorithm": "ig-match", "seed": 7}
        status, cold = call(server, "/partition", body)
        assert status == 200
        assert cold["cached"] is False and cold["source"] == "computed"
        status, warm = call(server, "/partition", body)
        assert status == 200
        assert warm["cached"] is True and warm["source"] == "memory"
        for doc in (cold, warm):
            result = payload_to_result(h, doc["result"])
            assert canonical_result_bytes(result) == direct
        assert cold["fingerprint"] == warm["fingerprint"]

    def test_net_text_body(self, server):
        net = "NET n1 a b\nNET n2 b c\nNET n3 c d\nNET n4 d a\n"
        status, doc = call(
            server, "/partition", {"net": net, "algorithm": "fm"}
        )
        assert status == 200
        assert len(doc["result"]["sides"]) == 4

    def test_cache_false_forces_compute(self, server, h):
        body = {"netlist": to_json(h), "algorithm": "fm", "cache": False}
        _, first = call(server, "/partition", body)
        _, second = call(server, "/partition", body)
        assert first["cached"] is False
        assert second["cached"] is False

    def test_both_body_forms_rejected(self, server, h):
        status, doc = call(
            server, "/partition", {"netlist": to_json(h), "net": "NET a b"}
        )
        assert status == 400
        assert "exactly one" in doc["error"]

    def test_neither_body_form_rejected(self, server):
        status, doc = call(server, "/partition", {"algorithm": "fm"})
        assert status == 400
        assert "exactly one" in doc["error"]

    def test_invalid_json_rejected(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/partition", data=b"{not json"
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                status = response.status
                doc = json.loads(response.read())
        except urllib.error.HTTPError as exc:
            status, doc = exc.code, json.loads(exc.read())
        assert status == 400
        assert "invalid JSON" in doc["error"]

    def test_empty_body_rejected(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/partition", data=b"", method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                status = response.status
                doc = json.loads(response.read())
        except urllib.error.HTTPError as exc:
            status, doc = exc.code, json.loads(exc.read())
        assert status == 400
        assert "empty" in doc["error"]

    def test_body_refused_unread_closes_the_connection(self, server):
        # A body refused before it is read (here: declared too large)
        # must never reach the request parser as the next request.
        import http.client

        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", "/partition")
            conn.putheader("Content-Length", str(70 * 1024 * 1024))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert "exceeds" in json.loads(response.read())["error"]
            conn.sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            try:
                reply = conn.sock.recv(1024)
            except ConnectionResetError:
                reply = b""
            assert reply == b""  # closed, not answered
        finally:
            conn.close()

    def test_unknown_algorithm_rejected(self, server, h):
        status, doc = call(
            server,
            "/partition",
            {"netlist": to_json(h), "algorithm": "quantum"},
        )
        assert status == 400
        assert "unknown algorithm" in doc["error"]

    def test_unknown_request_field_rejected(self, server, h):
        status, doc = call(
            server,
            "/partition",
            {"netlist": to_json(h), "algorithm": "fm", "retries": 3},
        )
        # "retries" is not a request field — it must be called out,
        # not ignored.
        assert status == 400
        assert "retries" in doc["error"]

    @pytest.mark.parametrize(
        "body",
        [
            {"netlist": 5},
            {"netlist": {"format": "repro-hypergraph-v1",
                         "num_modules": 3}},
            {"netlist": _netlist(nets=[[0, "a"]])},
            {"netlist": _netlist(nets=7)},
            {"netlist": _netlist(num_modules="x")},
            {"netlist": _netlist(module_areas=["big", 1, 1])},
            {"netlist": _netlist(module_areas=[float("nan"), 1, 1])},
            {"netlist": _netlist(net_weights=[float("inf"), 1])},
            # json.loads yields each of these; Infinity used to escape
            # as a 500 OverflowError, the rest were truncated or
            # coerced and served 200.
            {"netlist": _netlist(nets=[[0, float("inf")]])},
            {"netlist": _netlist(nets=[[0, 2.5]])},
            {"netlist": _netlist(nets=[[0, True]])},
            {"netlist": _netlist(nets=[[0, "2"]])},
            {"netlist": _netlist(num_modules=6.7)},
            # float() read these as 2.0, 1.0, 1.0 and 3.0 and served 200.
            {"netlist": _netlist(module_areas=["2", True, 1])},
            {"netlist": _netlist(net_weights=[True, "3"])},
        ],
        ids=[
            "netlist-not-object", "no-nets", "pin-not-int",
            "nets-not-list", "num-modules-not-int", "area-not-number",
            "nan-area", "inf-weight", "pin-inf", "pin-float", "pin-bool",
            "pin-numeric-string", "num-modules-float", "area-string-bool",
            "weight-bool-string",
        ],
    )
    def test_malformed_body_is_400(self, server, body):
        status, doc = call(server, "/partition", dict(body, algorithm="fm"))
        assert status == 400
        assert doc["error"] and "\n" not in doc["error"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("async", True),
            ("priority", 1),
            ("max_retries", 2),
            ("deadline_s", 5.0),
        ],
    )
    def test_job_queue_fields_are_unknown(self, server, field, value):
        # Every request is served synchronously; the old async-job
        # knobs get the unknown-field 400 like any other stray key.
        body = {"netlist": _netlist(), "algorithm": "fm", field: value}
        status, doc = call(server, "/partition", body)
        assert status == 400
        assert f"unknown request field(s): {field} (" in doc["error"]

    def test_degenerate_netlist_is_400_not_500(self, server):
        status, doc = call(
            server,
            "/partition",
            {"net": "NET only a b c\n", "algorithm": "ig-match"},
        )
        assert status == 400
        assert "error" in doc


def _call_with_headers(srv, path, body=None, method=None):
    """Like :func:`call` but also returns the response headers."""
    host, port = srv.server_address[:2]
    url = f"http://{host}:{port}{path}"
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestRouting:
    """One route table: a known path asked with another method is a
    JSON 405 whose ``Allow`` header names the path's methods, and an
    unknown path is a JSON 404.  Either reply carries a trace id, and
    the request leaves an access line and a latency observation."""

    @pytest.fixture
    def logged_server(self):
        stream = io.StringIO()
        srv = create_server(
            engine=PartitionEngine(cache=ResultCache(use_disk=False)),
            access_log=AccessLog(stream=stream),
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv, stream
        srv.shutdown()
        srv.server_close()
        thread.join(5)

    @pytest.mark.parametrize(
        "method, path, status, allow",
        [
            ("GET", "/partition", 405, "POST"),
            ("PUT", "/partition", 405, "POST"),
            ("PATCH", "/partition", 405, "POST"),
            ("DELETE", "/partition", 405, "POST"),
            ("GET", "/partition/delta", 405, "POST"),
            ("POST", "/metrics", 405, "GET"),
            ("POST", "/healthz", 405, "GET"),
            ("PUT", "/readyz", 405, "GET"),
            ("DELETE", "/debug/slow", 405, "GET"),
            ("GET", "/jobs/ghost", 404, None),
            ("DELETE", "/jobs/ghost", 404, None),
            ("PUT", "/nope", 404, None),
            ("PATCH", "/nope", 404, None),
        ],
    )
    def test_wrong_method_or_path(
        self, logged_server, method, path, status, allow
    ):
        srv, stream = logged_server
        body = {"x": 1} if method in ("POST", "PUT", "PATCH") else None
        got, doc, headers = _call_with_headers(srv, path, body, method)
        assert got == status
        assert doc["error"] and "\n" not in doc["error"]
        assert headers.get("Allow") == allow
        trace_id = headers["X-Trace-Id"]
        # The access line is written before the reply: no waiting.
        entries = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert [
            (e["type"], e["method"], e["path"], e["status"])
            for e in entries
            if e.get("trace_id") == trace_id
        ] == [("access", method, path, status)]
        route = path if status == 405 else "other"
        observed = srv.engine.hists.get(
            "http.request.duration_seconds", method=method, route=route
        )
        assert observed is not None and observed.count == 1

    def test_keepalive_connection_closed_after_405(self, logged_server):
        # The rejected request's body is never read, so the server must
        # not parse it as the connection's next request.
        import http.client

        srv, _ = logged_server
        host, port = srv.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("PUT", "/partition", json.dumps({"x": 1}))
            response = conn.getresponse()
            response.read()
            assert response.status == 405
            assert response.headers.get("Connection") == "close"
        finally:
            conn.close()


class TestListenBacklog:
    def test_sixteen_clients_connect_before_any_accept(self):
        # socketserver's default backlog of 5 dropped the SYN of the
        # seventh client to connect while no accept ran; that client
        # waited out a 1 s retransmit.
        import socket

        srv = create_server(
            engine=PartitionEngine(cache=ResultCache(use_disk=False))
        )
        clients = []
        try:
            for _ in range(16):
                clients.append(
                    socket.create_connection(srv.server_address, timeout=0.5)
                )
        finally:
            for client in clients:
                client.close()
            srv.server_close()


class TestGracefulDrain:
    def _server(self, tmp_path):
        from repro.service.http import AccessLog

        log_path = tmp_path / "access.jsonl"
        srv = create_server(
            engine=PartitionEngine(cache=ResultCache(use_disk=False)),
            access_log=AccessLog(path=str(log_path)),
        )
        thread = threading.Thread(
            target=srv.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        return srv, thread, log_path

    def test_drain_idle_server_is_clean_and_closes_port(self, tmp_path, h):
        srv, thread, log_path = self._server(tmp_path)
        body = {"netlist": to_json(h), "algorithm": "fm", "seed": 0}
        assert call(srv, "/partition", body)[0] == 200
        assert srv.drain(timeout_s=5.0) is True
        thread.join(5)
        host, port = srv.server_address[:2]
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=2
            )
        # The access log was flushed and contains the served request.
        entries = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert any(
            e.get("path") == "/partition" and e.get("status") == 200
            for e in entries
        )

    def test_keepalive_request_during_drain_gets_503(self, tmp_path, h):
        import http.client

        srv, thread, _ = self._server(tmp_path)
        host, port = srv.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        body = json.dumps(
            {"netlist": to_json(h), "algorithm": "fm", "seed": 0}
        )
        headers = {"Content-Type": "application/json"}
        try:
            # First request establishes a keep-alive connection.
            conn.request("POST", "/partition", body, headers)
            assert conn.getresponse().read() and True
            # A request racing in on the open connection after drain
            # starts was never accepted work: honest 503 + Retry-After.
            srv.draining = True
            conn.request("POST", "/partition", body, headers)
            response = conn.getresponse()
            doc = json.loads(response.read())
            assert response.status == 503
            assert response.headers.get("Retry-After") == "1"
            assert "draining" in doc["error"]
        finally:
            conn.close()
            srv.shutdown()
            srv.server_close()
            thread.join(5)

    def test_request_after_drain_closed_the_log_gets_no_reply(
        self, tmp_path
    ):
        import http.client

        srv, thread, log_path = self._server(tmp_path)
        host, port = srv.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            # The connection's handler waits for its next request with
            # nothing in flight, so drain closes the access log first.
            assert srv.drain(timeout_s=5.0) is True
            conn.request("GET", "/healthz")
            with pytest.raises(ConnectionError):
                conn.getresponse()
        finally:
            conn.close()
            thread.join(5)
        # One reply, one access line.
        entries = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert [e["path"] for e in entries if e["type"] == "access"] == [
            "/healthz"
        ]

    def test_silent_queued_peers_cannot_outlast_the_budget(self, tmp_path):
        # Each queued connection that sends nothing held the drain for
        # a full second, beyond its budget: three took 3 s.
        import socket
        import time

        srv, thread, _ = self._server(tmp_path)
        srv.shutdown()  # the accept loop stops; new peers queue
        thread.join(5)
        peers = [
            socket.create_connection(srv.server_address, timeout=5)
            for _ in range(3)
        ]
        try:
            start = time.monotonic()
            assert srv.drain(timeout_s=0.3) is True
            assert time.monotonic() - start < 2.0
        finally:
            for peer in peers:
                peer.close()

    def test_trickling_queued_peer_cannot_outlast_the_budget(
        self, tmp_path
    ):
        # A queued peer sending one byte every 0.25 s kept each read
        # inside its 1 s timeout, so the drain read its whole request:
        # 13 bytes held a 0.5 s drain for 3.25 s.
        import socket
        import time

        srv, thread, _ = self._server(tmp_path)
        srv.shutdown()  # the accept loop stops; new peers queue
        thread.join(5)
        peer = socket.create_connection(srv.server_address, timeout=5)
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        stop = threading.Event()

        def trickle():
            for byte in request:
                if stop.wait(0.25):
                    return
                try:
                    peer.sendall(bytes([byte]))
                except OSError:
                    return

        sender = threading.Thread(target=trickle, daemon=True)
        sender.start()
        try:
            start = time.monotonic()
            assert srv.drain(timeout_s=0.5) is True
            assert time.monotonic() - start < 1.5
        finally:
            stop.set()
            sender.join(5)
            peer.close()
        assert not sender.is_alive()

    def test_drain_timeout_reports_unclean(self, tmp_path):
        srv, thread, _ = self._server(tmp_path)
        # Fake a stuck in-flight request: drain must give up at the
        # deadline and say so rather than hanging.
        srv.request_started()
        try:
            assert srv.drain(timeout_s=0.2) is False
        finally:
            srv.request_finished()
            thread.join(5)


class TestProcessGauges:
    def test_process_metrics_sampled(self):
        from repro.obs import process_metrics

        sample = process_metrics()
        assert sample["max_rss_bytes"] > 0
        assert sample["cpu_seconds"] > 0
        assert sample["cpu_seconds"] == pytest.approx(
            sample["cpu_user_seconds"] + sample["cpu_system_seconds"]
        )
        # Linux: point-in-time RSS from /proc, bounded by the peak.
        if "rss_bytes" in sample:
            assert 0 < sample["rss_bytes"]

    def test_process_section_in_metrics_json(self, server):
        _, doc = call(server, "/metrics")
        process = doc["process"]
        assert process["max_rss_bytes"] > 0
        assert process["cpu_seconds"] > 0

    def test_process_gauges_in_prometheus(self, server):
        from repro.obs import parse_prometheus_text

        host, port = server.server_address[:2]
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics?format=prometheus", timeout=30
        ) as response:
            text = response.read().decode("utf-8")
        samples = parse_prometheus_text(text)
        # Point-in-time values are gauges; consumed CPU is a counter.
        assert "# TYPE repro_process_max_rss_bytes gauge" in text
        assert "# TYPE repro_process_cpu_seconds_total counter" in text
        assert samples["repro_process_max_rss_bytes"][0][1] > 0
        assert samples["repro_process_cpu_seconds_total"][0][1] > 0
