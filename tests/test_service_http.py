"""HTTP API tests: a real server on an ephemeral port, stdlib client."""

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

    def test_unknown_path_404(self, server):
        status, doc = call(server, "/nope")
        assert status == 404
        assert "unknown path" in doc["error"]

    def test_post_to_unknown_path_404(self, server):
        status, doc = call(server, "/healthz", {"x": 1})
        assert status == 404

    def test_readyz_ready(self, server):
        status, doc = call(server, "/readyz")
        assert status == 200
        assert doc["status"] == "ready"
        assert set(doc["checks"]) == {"cache", "jobs"}
        assert all(check["ok"] for check in doc["checks"].values())

    def test_readyz_unready_is_503(self, server):
        server.ready_queue_bound = -1  # any queued work exceeds it
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
        # "retries" is not a request field (it's an async-job knob
        # spelled "max_retries") — must be called out, not ignored.
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
            {"netlist": _netlist(), "async": True, "priority": "x"},
            {"netlist": _netlist(module_areas=[float("nan"), 1, 1])},
            {"netlist": _netlist(net_weights=[float("inf"), 1])},
        ],
        ids=[
            "netlist-not-object", "no-nets", "pin-not-int",
            "nets-not-list", "num-modules-not-int", "area-not-number",
            "priority-not-int", "nan-area", "inf-weight",
        ],
    )
    def test_malformed_body_is_400(self, server, body):
        status, doc = call(server, "/partition", dict(body, algorithm="fm"))
        assert status == 400
        assert doc["error"] and "\n" not in doc["error"]

    def test_degenerate_netlist_is_400_not_500(self, server):
        status, doc = call(
            server,
            "/partition",
            {"net": "NET only a b c\n", "algorithm": "ig-match"},
        )
        assert status == 400
        assert "error" in doc


class TestAsyncJobs:
    def test_async_job_lifecycle(self, server, h):
        body = {
            "netlist": to_json(h),
            "algorithm": "fm",
            "async": True,
        }
        status, doc = call(server, "/partition", body)
        assert status == 202
        job_id = doc["job"]
        engine = server.engine
        engine.scheduler.wait(job_id, timeout=30)
        status, record = call(server, f"/jobs/{job_id}")
        assert status == 200
        assert record["status"] == "succeeded"
        assert record["result"]["result"]["nets_cut"] >= 0

    def test_unknown_job_404(self, server):
        status, doc = call(server, "/jobs/ghost")
        assert status == 404
        assert "unknown job" in doc["error"]

    def test_delete_unknown_job_404(self, server):
        status, doc = call(server, "/jobs/ghost", method="DELETE")
        assert status == 404

    def test_delete_finished_job_reports_not_cancelled(self, server, h):
        _, doc = call(
            server,
            "/partition",
            {"netlist": to_json(h), "algorithm": "fm", "async": True},
        )
        job_id = doc["job"]
        server.engine.scheduler.wait(job_id, timeout=30)
        status, outcome = call(server, f"/jobs/{job_id}", method="DELETE")
        assert status == 200
        assert outcome["cancelled"] is False
        assert outcome["status"] == "succeeded"

    def test_delete_running_job_reports_cancelling(self, server):
        import threading

        release = threading.Event()
        started = threading.Event()

        def work():
            started.set()
            release.wait(10)
            return "discarded"

        job = server.engine.scheduler.submit(work)
        try:
            assert started.wait(5)
            status, outcome = call(
                server, f"/jobs/{job.id}", method="DELETE"
            )
            assert status == 200
            assert outcome["cancelled"] is True
            # Honest state: the work is still draining, not yet dead.
            assert outcome["status"] == "cancelling"
        finally:
            release.set()
        done = server.engine.scheduler.wait(job.id, timeout=5)
        assert done.status == "cancelled"
        assert done.result is None


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


class TestBackpressure429:
    @pytest.fixture
    def shed_server(self, tmp_path):
        from repro.service.http import AccessLog

        log_path = tmp_path / "access.jsonl"
        srv = create_server(
            engine=PartitionEngine(cache=ResultCache(use_disk=False)),
            ready_queue_bound=-1,  # any queue depth exceeds it
            access_log=AccessLog(path=str(log_path)),
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv, log_path
        srv.shutdown()
        srv.server_close()
        thread.join(5)

    def test_429_retry_after_counter_and_access_log(self, shed_server, h):
        srv, log_path = shed_server
        body = {"netlist": to_json(h), "algorithm": "fm", "seed": 0}
        status, doc, headers = _call_with_headers(srv, "/partition", body)
        assert status == 429
        assert headers.get("Retry-After") == "1"
        assert "queue depth" in doc["error"]
        assert doc["queue_depth"] >= 0

        status, metrics = call(srv, "/metrics")
        assert metrics["service"]["service.rejected"] == 1
        # The shed request never became accepted work.
        assert metrics["service"].get("service.requests", 0) == 0

        entries = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        shed = [e for e in entries if e.get("status") == 429]
        assert len(shed) == 1
        assert shed[0]["rejected"] is True
        assert shed[0]["path"] == "/partition"

    def test_rejected_counter_in_prometheus(self, shed_server, h):
        from repro.obs import parse_prometheus_text

        srv, _ = shed_server
        body = {"netlist": to_json(h), "algorithm": "fm", "seed": 0}
        call(srv, "/partition", body)
        host, port = srv.server_address[:2]
        with urllib.request.urlopen(
            f"http://{host}:{port}/metrics?format=prometheus", timeout=30
        ) as response:
            text = response.read().decode("utf-8")
        samples = parse_prometheus_text(text)
        values = [v for _, v in samples["repro_service_rejected_total"]]
        assert values == [1.0]
        assert "# TYPE repro_service_rejected_total counter" in text

    def test_health_paths_not_shed(self, shed_server):
        # Backpressure sheds work submissions, not health/metrics reads.
        srv, _ = shed_server
        assert call(srv, "/healthz")[0] == 200
        assert call(srv, "/metrics")[0] == 200
        assert call(srv, "/readyz")[0] == 503  # honest: queue over bound

    def test_normal_bound_accepts(self, server, h):
        body = {"netlist": to_json(h), "algorithm": "fm", "seed": 0}
        status, _ = call(server, "/partition", body)
        assert status == 200
        _, metrics = call(server, "/metrics")
        assert metrics["service"].get("service.rejected", 0) == 0


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
