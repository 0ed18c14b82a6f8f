"""End-to-end serving telemetry: trace ids, access log, /metrics, /debug/slow.

The acceptance path: one HTTP request produces (a) an access-log line
carrying its trace id, (b) a Prometheus-parseable ``/metrics`` document
whose request histogram counts it in the correct latency bucket, and
(c) — with the slow threshold at zero — a ``/debug/slow`` exemplar for
that trace id whose span tree names the compute phases that served it.
"""

import io
import json
import math
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.delta import random_delta
from repro.hypergraph import to_json
from repro.service import (
    AccessLog,
    PartitionEngine,
    PartitionRequest,
    ResultCache,
    SlowLog,
    create_server,
)
from tests.conftest import random_hypergraph


@pytest.fixture
def log_stream():
    return io.StringIO()


@pytest.fixture
def engine(tmp_path):
    return PartitionEngine(
        cache=ResultCache(disk_dir=tmp_path / "cache"),
        slow_threshold_s=0.0,
    )


@pytest.fixture
def server(engine, log_stream):
    srv = create_server(
        engine=engine, access_log=AccessLog(stream=log_stream)
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(5)


@pytest.fixture
def h():
    return random_hypergraph(5, num_modules=14, num_nets=18)


def call(srv, path, body=None, method=None, headers=None):
    host, port = srv.server_address[:2]
    url = f"http://{host}:{port}{path}"
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    request.add_header("Content-Type", "application/json")
    for key, value in (headers or {}).items():
        request.add_header(key, value)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (
                response.status,
                response.read(),
                dict(response.headers),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read(), dict(exc.headers)


def log_entries(log_stream, expect=None, timeout=5.0):
    """Parsed log lines; with ``expect``, waits for that many.

    A request's access entry is written before its reply, so the wait
    only matters for lines no reply orders, such as the error entry a
    crashing handler writes.
    """
    deadline = time.monotonic() + timeout
    while True:
        entries = [
            json.loads(line)
            for line in log_stream.getvalue().splitlines()
            if line.strip()
        ]
        if expect is None or len(entries) >= expect:
            return entries
        if time.monotonic() > deadline:
            return entries
        time.sleep(0.01)


class TestTraceIngress:
    def test_inbound_header_honoured_everywhere(self, server, h):
        body = {"netlist": to_json(h), "algorithm": "eig1", "seed": 0}
        status, raw, headers = call(
            server, "/partition", body,
            headers={"X-Trace-Id": "cafe0123cafe0123"},
        )
        assert status == 200
        doc = json.loads(raw)
        assert doc["trace_id"] == "cafe0123cafe0123"
        assert headers["X-Trace-Id"] == "cafe0123cafe0123"

    def test_invalid_header_replaced_with_minted_id(self, server):
        status, raw, headers = call(
            server, "/healthz",
            headers={"X-Trace-Id": "not a valid id!!"},
        )
        assert status == 200
        assert headers["X-Trace-Id"] != "not a valid id!!"
        assert len(headers["X-Trace-Id"]) == 16

    def test_every_response_carries_a_trace_id(self, server):
        for path in ("/healthz", "/readyz", "/metrics", "/debug/slow"):
            _, _, headers = call(server, path)
            assert "X-Trace-Id" in headers, path


class TestAccessLog:
    def test_one_line_per_request_with_trace_id(
        self, server, log_stream, h
    ):
        body = {"netlist": to_json(h), "algorithm": "fm", "seed": 0}
        _, raw, _ = call(
            server, "/partition", body,
            headers={"X-Trace-Id": "beefbeefbeefbeef"},
        )
        call(server, "/healthz")
        entries = log_entries(log_stream, expect=2)
        assert len(entries) == 2
        first, second = entries
        assert first["type"] == "access"
        assert first["method"] == "POST"
        assert first["path"] == "/partition"
        assert first["status"] == 200
        assert first["trace_id"] == "beefbeefbeefbeef"
        assert first["bytes"] == len(raw)
        assert first["duration_s"] > 0
        assert second["path"] == "/healthz"

    def test_cache_provenance_in_entries(self, server, log_stream, h):
        body = {"netlist": to_json(h), "algorithm": "fm", "seed": 1}
        call(server, "/partition", body)
        call(server, "/partition", body)
        entries = log_entries(log_stream, expect=2)
        assert entries[0]["source"] == "computed"
        assert entries[0]["cached"] is False
        assert entries[1]["source"] == "memory"
        assert entries[1]["cached"] is True

    def test_handler_error_logged_and_500(self, server, log_stream):
        server.engine.metrics = lambda: 1 / 0  # simulate a crash
        status, raw, _ = call(server, "/metrics")
        assert status == 500
        doc = json.loads(raw)
        assert "ZeroDivisionError" in doc["error"]
        errors = [
            e
            for e in log_entries(log_stream, expect=2)
            if e["type"] == "error"
        ]
        assert len(errors) == 1
        assert "ZeroDivisionError" in errors[0]["error"]
        assert errors[0]["trace_id"]

    @pytest.mark.parametrize(
        "algorithm, status", [("fm", 200), ("quantum", 400)]
    )
    def test_line_readable_on_receipt_of_reply(
        self, server, log_stream, h, algorithm, status
    ):
        # The line is written before the reply's first byte, so a
        # client holding its reply finds it at once, with no polling.
        body = {"netlist": to_json(h), "algorithm": algorithm}
        got, raw, headers = call(server, "/partition", body)
        entries = [
            json.loads(line) for line in log_stream.getvalue().splitlines()
        ]
        assert got == status
        assert len(entries) == 1
        entry = entries[0]
        assert entry["type"] == "access"
        assert entry["status"] == status
        assert entry["trace_id"] == headers["X-Trace-Id"]
        assert entry["bytes"] == len(raw)

    def test_quiet_suppresses_access_but_never_errors(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream, quiet=True)
        log.access(path="/healthz", status=200)
        log.error(error="broken")
        entries = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert [e["type"] for e in entries] == ["error"]


class TestMetricsExposition:
    def test_json_by_default(self, server):
        status, raw, headers = call(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        doc = json.loads(raw)
        assert "histograms" in doc and "slow" in doc

    def test_prometheus_via_query_param(self, server, h):
        body = {"netlist": to_json(h), "algorithm": "fm", "seed": 2}
        call(server, "/partition", body)
        status, raw, headers = call(server, "/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        samples = obs.parse_prometheus_text(raw.decode("utf-8"))
        assert samples["repro_service_requests_total"] == [({}, 1.0)]

    def test_prometheus_via_accept_header(self, server):
        status, raw, headers = call(
            server, "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        obs.parse_prometheus_text(raw.decode("utf-8"))

    def test_format_param_overrides_accept(self, server):
        _, raw, headers = call(
            server, "/metrics?format=json",
            headers={"Accept": "text/plain"},
        )
        assert headers["Content-Type"].startswith("application/json")
        json.loads(raw)

    def test_request_counted_in_correct_latency_bucket(self, server, h):
        body = {"netlist": to_json(h), "algorithm": "eig1", "seed": 3}
        _, raw, _ = call(server, "/partition", body)
        duration = json.loads(raw)["duration_s"]
        _, prom_raw, _ = call(server, "/metrics?format=prometheus")
        samples = obs.parse_prometheus_text(prom_raw.decode("utf-8"))
        buckets = [
            (labels, value)
            for labels, value in samples[
                "repro_service_request_duration_seconds_bucket"
            ]
            if labels.get("algorithm") == "eig1"
        ]
        assert buckets
        for labels, value in buckets:
            le = (
                math.inf
                if labels["le"] == "+Inf"
                else float(labels["le"])
            )
            expected = 1.0 if le >= duration else 0.0
            assert value == expected, (labels, duration)

    def test_http_histogram_routes_normalised(self, server, h):
        call(server, "/healthz")
        call(server, "/jobs/nonexistent")
        call(server, "/nope")
        call(server, "/partition")  # wrong method: a known route
        _, raw, _ = call(server, "/metrics?format=prometheus")
        samples = obs.parse_prometheus_text(raw.decode("utf-8"))
        routes = {
            labels["route"]
            for labels, _ in samples[
                "repro_http_request_duration_seconds_count"
            ]
        }
        assert routes == {"/healthz", "/partition", "other"}


class TestSlowLog:
    def test_exemplar_names_compute_phases(self, server, h):
        body = {"netlist": to_json(h), "algorithm": "eig1", "seed": 4}
        _, raw, _ = call(
            server, "/partition", body,
            headers={"X-Trace-Id": "aaaabbbbccccdddd"},
        )
        assert json.loads(raw)["trace_id"] == "aaaabbbbccccdddd"
        status, slow_raw, _ = call(server, "/debug/slow")
        assert status == 200
        slow = json.loads(slow_raw)
        assert slow["threshold_s"] == 0.0
        entry = next(
            e
            for e in slow["entries"]
            if e["trace_id"] == "aaaabbbbccccdddd"
        )
        assert entry["algorithm"] == "eig1"
        assert entry["source"] == "computed"

        def names(nodes):
            for node in nodes:
                yield node["name"]
                yield from names(node["children"])

        span_names = set(names(entry["spans"]))
        assert "service.request" in span_names
        assert any(
            name.startswith(("spectral.", "splits.", "igmatch."))
            for name in span_names
        ), span_names

    def test_html_rendering(self, server, h):
        body = {"netlist": to_json(h), "algorithm": "fm", "seed": 5}
        call(server, "/partition", body)
        status, raw, headers = call(server, "/debug/slow?format=html")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert "service.request" in raw.decode("utf-8")

    def test_ring_buffer_evicts_oldest(self):
        slow = SlowLog(threshold_s=0.0, capacity=2)
        for i in range(4):
            slow.record({"trace_id": f"t{i}"})
        entries = slow.entries()
        assert len(entries) == 2
        assert [e["trace_id"] for e in entries] == ["t3", "t2"]
        snap = slow.snapshot()
        assert snap["held"] == 2
        assert snap["recorded"] == 4

    def test_fast_requests_not_recorded(self, tmp_path, h):
        engine = PartitionEngine(
            cache=ResultCache(use_disk=False), slow_threshold_s=60.0
        )
        engine.partition(h, PartitionRequest("fm", seed=0))
        assert len(engine.slow) == 0

    def test_failed_request_leaves_error_exemplar(self, h):
        engine = PartitionEngine(
            cache=ResultCache(use_disk=False), slow_threshold_s=0.0
        )

        def boom(*args, **kwargs):
            raise RuntimeError("compute exploded")

        engine._compute = boom
        with pytest.raises(RuntimeError):
            engine.partition(h, PartitionRequest("fm", seed=0))
        entry = engine.slow.entries()[0]
        assert entry["source"] == "error"
        merged = engine.hists.merged("service.request.duration_seconds")
        assert merged.count == 1

    def test_slow_delta_leaves_exemplar(self, h):
        # partition and partition_delta share one traced serve, so a
        # delta over the threshold is recorded like any other request.
        engine = PartitionEngine(slow_threshold_s=0.0)
        request = PartitionRequest("fm", seed=0)
        base = engine.partition(h, request)
        assert len(engine.slow) == 1
        served = engine.partition_delta(
            base.fingerprint, random_delta(h, random.Random(3)), request
        )
        assert len(engine.slow) == 2
        entry = engine.slow.entries()[0]
        assert entry["trace_id"] == served.trace_id
        assert entry["source"] == served.source == "delta-warm"
        assert entry["fingerprint"] == served.fingerprint
        assert [node["name"] for node in entry["spans"]] == ["service.delta"]
        merged = engine.hists.merged("service.delta.duration_seconds")
        assert merged.count == 1

    def test_exemplar_carries_memory_snapshot(self, h):
        engine = PartitionEngine(
            cache=ResultCache(use_disk=False), slow_threshold_s=0.0
        )
        engine.partition(h, PartitionRequest("fm", seed=0))
        mem = engine.slow.entries()[0]["mem"]
        assert mem["rss_bytes"] > 0 and mem["max_rss_bytes"] > 0
        assert "traced_peak_bytes" not in mem  # engine not memory-profiled

    def test_memprof_engine_attributes_spans_and_peak(self, h):
        import tracemalloc

        engine = PartitionEngine(
            cache=ResultCache(use_disk=False),
            slow_threshold_s=0.0,
            memprof=True,
        )
        engine.partition(h, PartitionRequest("fm", seed=0))
        entry = engine.slow.entries()[0]
        # The exit-time snapshot ran while tracemalloc was still live.
        assert entry["mem"]["traced_peak_bytes"] > 0

        def walk(nodes):
            for node in nodes:
                yield node
                yield from walk(node["children"])

        assert all(
            "mem_alloc_bytes" in node["attrs"]
            for node in walk(entry["spans"])
        )
        # Tracemalloc tore down with the request's capture.
        assert not tracemalloc.is_tracing()


class TestReadyz:
    def test_ready_when_cache_writable(self, server):
        status, raw, _ = call(server, "/readyz")
        assert status == 200
        doc = json.loads(raw)
        assert doc["status"] == "ready"
        assert list(doc["checks"]) == ["cache"]
        assert doc["checks"]["cache"]["ok"] is True

    def test_unready_when_cache_dir_unwritable(self, server, tmp_path):
        probe = tmp_path / "missing"
        server.engine.cache.check_disk_writable = lambda: (
            False,
            f"cache dir not writable: {probe}",
        )
        status, raw, _ = call(server, "/readyz")
        assert status == 503
        assert json.loads(raw)["checks"]["cache"]["ok"] is False
