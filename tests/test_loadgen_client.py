"""Load client integration tests: real server, real sockets.

Covers the tentpole contract end to end: deterministic workloads driven
over HTTP, client-side histograms, the before/after ``/metrics``
cross-check (every client request accounted in server deltas), 503
draining replies recorded as ``rejected`` (not an error), graceful drain
losing zero accepted requests, the ``serving`` bench payload and its
rendering, and the CLI exit codes.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.loadgen import (
    LoadClient,
    Workload,
    build_corpus,
    build_payload,
    crosscheck,
    parse_mix,
    parse_slo,
    run_serving_scenario,
    scrape_metrics,
)
from repro.loadgen.__main__ import EXIT_FAILED, EXIT_OK, main
from repro.loadgen.scenario import settle_metrics
from repro.obs import render_html, render_markdown, validate_payload
from repro.service import PartitionEngine, ResultCache, create_server
from repro.service.http import AccessLog


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(distinct=2, seed=0, scale=0.1)


def _values(payload, name):
    """``{labels: value}`` of every metric called ``name``."""
    return {
        tuple(sorted(m["labels"].items())): m["value"]
        for m in payload["metrics"]
        if m["name"] == name
    }


def _statuses(payload, prefix=""):
    return {
        c["name"]: c["status"]
        for c in payload["checks"]
        if c["name"].startswith(prefix)
    }


def _workload(corpus, **kwargs):
    defaults = dict(
        mix=parse_mix("igmatch=0.5,fm=0.5"),
        corpus_size=len(corpus),
        zipf_s=1.1,
        seed=0,
    )
    defaults.update(kwargs)
    return Workload(**defaults)


class _Server:
    """A served engine on an ephemeral port, with optional access log."""

    def __init__(self, access_log=None):
        self.server = create_server(
            engine=PartitionEngine(cache=ResultCache(use_disk=False)),
            access_log=access_log,
        )
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        if not self.server.draining:
            self.server.shutdown()
            self.server.server_close()
        self.thread.join(5)


class TestClosedLoopRun:
    def test_run_crosscheck_and_payload(self, corpus, tmp_path):
        with _Server() as srv:
            workload = _workload(corpus)
            client = LoadClient(srv.url, corpus, workload, timeout_s=60)
            before = scrape_metrics(srv.url)
            result = client.run_closed(duration_s=1.5, concurrency=3)
            after = settle_metrics(srv.url, result.responses)
        assert result.count("ok") > 0
        assert result.count("error") == 0
        assert result.count("transport") == 0

        # Every response carried the client-minted trace id scheme and
        # cache provenance.
        for record in result.records:
            assert record.trace_id.startswith("loadgen-")
            assert record.source in ("computed", "memory", "disk", "inflight")

        # Client-side histograms saw every request.
        merged = result.hists.merged("loadgen.request.duration_seconds")
        assert merged.count == len(result.records)

        checks = crosscheck(before, after, result)
        assert all(c["status"] == "ok" for c in checks), checks

        result.metrics_before, result.metrics_after = before, after
        slo = parse_slo("p99=2.0,error_rate=0.01")
        payload = build_payload(
            result, workload, corpus, slo, checks
        )
        validate_payload(payload, "serving")
        assert payload["ok"] is True
        assert set(_statuses(payload, "slo.").values()) == {"pass"}
        assert len(payload["checks"]) == 2 + len(checks)

        # Renderers accept the payload.
        markdown = render_markdown(payload)
        assert "http.request.duration_seconds count delta" in markdown
        html = render_html(payload)
        assert html.startswith("<!doctype html>")
        assert "slo.p99" in html

        # The payload is JSON-serialisable as written.
        (tmp_path / "BENCH_serving.json").write_text(json.dumps(payload))

    def test_schedule_consumed_in_order(self, corpus):
        with _Server() as srv:
            client = LoadClient(srv.url, corpus, _workload(corpus))
            result = client.run_closed(duration_s=0.8, concurrency=2)
        indices = [r.index for r in result.records]
        assert indices == list(range(len(indices)))

    def test_corpus_size_mismatch_rejected(self, corpus):
        from repro.errors import ReproError

        workload = _workload(corpus, corpus_size=len(corpus) + 1)
        with pytest.raises(ReproError, match="corpus"):
            LoadClient("http://127.0.0.1:1", corpus, workload)


class TestFlowControl:
    def test_503s_recorded_as_rejected_not_errors(self, corpus):
        # A draining server answers every request 503, so the metrics
        # are scraped with the flag down and the load runs with it up.
        with _Server() as srv:
            client = LoadClient(srv.url, corpus, _workload(corpus))
            before = scrape_metrics(srv.url)
            srv.server.draining = True
            try:
                result = client.run_closed(duration_s=0.5, concurrency=2)
            finally:
                srv.server.draining = False
            after = settle_metrics(srv.url, result.responses)
        assert result.count("ok") == 0
        assert result.count("error") == 0
        rejected = result.count("rejected")
        assert rejected > 0
        assert all(r.status == 503 for r in result.records)
        assert all(r.error for r in result.records)

        checks = crosscheck(before, after, result)
        assert all(c["status"] == "ok" for c in checks), checks
        by_name = {c["check"]: c for c in checks}
        # Every 503 is one server-side response ...
        assert (
            by_name[
                "http.request.duration_seconds count delta == "
                "client responses"
            ]["observed"]
            == rejected
        )
        # ... and none of them reached the engine.
        assert (
            by_name["service.requests delta == client 200s"]["observed"]
            == 0
        )

        payload = build_payload(
            result,
            _workload(corpus),
            corpus,
            parse_slo("error_rate=0.01"),
            checks,
        )
        validate_payload(payload, "serving")
        # With zero non-rejected requests the error rate is unobservable
        # — skipped, not failed: a drain is flow control, not an error.
        assert _values(payload, "error_rate") == {}
        assert _statuses(payload, "slo.") == {"slo.error_rate": "skipped"}
        assert payload["ok"] is True


class TestGracefulDrain:
    def test_drain_loses_no_accepted_requests(self, corpus, tmp_path):
        log_path = tmp_path / "access.jsonl"
        srv = _Server(access_log=AccessLog(path=str(log_path)))
        with srv:
            client = LoadClient(srv.url, corpus, _workload(corpus))
            box = {}

            def load():
                box["result"] = client.run_closed(
                    duration_s=4.0, concurrency=3
                )

            loader = threading.Thread(target=load)
            loader.start()
            time.sleep(0.6)  # let traffic flow, then drain mid-run
            clean = srv.server.drain(timeout_s=10.0)
            loader.join(30)
        assert clean is True
        result = box["result"]
        ok = result.count("ok")
        assert ok > 0
        # The zero-loss guarantee: every request the server accepted
        # completed.  "refused" is the listener being closed (never
        # accepted); "transport" or "error" would be a lost request.
        assert result.count("transport") == 0
        assert result.count("error") == 0

        # The access log was flushed on drain: one access line per
        # response the client received, none lost in buffers.
        entries = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        partition_lines = [
            e
            for e in entries
            if e.get("type") == "access" and e.get("path") == "/partition"
        ]
        assert len(partition_lines) == result.responses

        # And the port really is closed.
        with pytest.raises(OSError):
            urllib.request.urlopen(srv.url + "/healthz", timeout=2)


class TestScenarioAndCli:
    def test_scenario_self_serve(self):
        payload, result = run_serving_scenario(
            duration_s=1.0,
            concurrency=2,
            mix="igmatch=0.5,fm=0.3,eig1=0.2",
            slo=parse_slo("p99=2.0,error_rate=0.01"),
            distinct=2,
            scale=0.1,
        )
        validate_payload(payload, "serving")
        assert payload["ok"] is True
        assert set(_statuses(payload).values()) == {"pass"}
        assert _values(payload, "requests")[(("outcome", "ok"),)] == (
            result.count("ok")
        )

    def test_cli_writes_reports_and_exits_zero(self, tmp_path):
        out = tmp_path / "BENCH_serving.json"
        html = tmp_path / "report.html"
        code = main(
            [
                "--self-serve",
                "--duration", "1",
                "--concurrency", "2",
                "--mix", "igmatch=0.5,fm=0.3,eig1=0.2",
                "--zipf", "1.1",
                "--slo", "p99=2.0,error_rate=0.01",
                "--distinct", "2",
                "--scale", "0.1",
                "--output", str(out),
                "--html", str(html),
                "--quiet",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        validate_payload(payload, "serving")
        assert html.read_text().startswith("<!doctype html>")

    def test_cli_against_a_running_server(self, tmp_path):
        # The shape of CI's loadgen-smoke: a server that is already
        # up, reached with --url rather than --self-serve.
        out = tmp_path / "BENCH_serving.json"
        with _Server() as srv:
            code = main(
                [
                    "--url", srv.url,
                    "--seed", "3",
                    "--duration", "1",
                    "--concurrency", "2",
                    "--mix", "igmatch=0.5,fm=0.3,eig1=0.2",
                    "--slo", "p99=2.0,error_rate=0.01",
                    "--distinct", "2",
                    "--scale", "0.1",
                    "--output", str(out),
                    "--quiet",
                ]
            )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        validate_payload(payload, "serving")
        assert payload["run"]["workload"]["seed"] == 3
        assert len(_statuses(payload, "slo.")) == 2
        assert set(_statuses(payload).values()) == {"pass"}

    def test_cli_failing_slo_exits_nonzero(self, tmp_path):
        # An impossible throughput floor: the verdict machinery must
        # hard-fail it and the CLI must gate on that.
        code = main(
            [
                "--self-serve",
                "--duration", "1",
                "--concurrency", "2",
                "--mix", "fm=1",
                "--slo", "rps=1000000",
                "--distinct", "2",
                "--scale", "0.1",
                "--output", str(tmp_path / "out.json"),
                "--quiet",
            ]
        )
        assert code == EXIT_FAILED

    def test_cli_bad_mix_is_usage_error(self, tmp_path):
        from repro.loadgen.__main__ import EXIT_USAGE

        code = main(
            [
                "--self-serve",
                "--duration", "1",
                "--mix", "quantum=1",
                "--output", str(tmp_path / "out.json"),
                "--quiet",
            ]
        )
        assert code == EXIT_USAGE

    def test_cli_unreachable_server_is_usage_error(self, tmp_path):
        from repro.loadgen.__main__ import EXIT_USAGE

        code = main(
            [
                "--url", "http://127.0.0.1:1",
                "--duration", "1",
                "--output", str(tmp_path / "out.json"),
                "--quiet",
            ]
        )
        assert code == EXIT_USAGE


class TestValidatePayload:
    def test_rejects_malformed(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="JSON object"):
            validate_payload([], "serving")
        with pytest.raises(ReproError, match="schema"):
            validate_payload({"schema": 99}, "serving")
        with pytest.raises(ReproError, match="kind"):
            validate_payload({"schema": 3, "kind": "nope"}, "serving")
        with pytest.raises(ReproError, match="'run' must be an object"):
            validate_payload({"schema": 3, "kind": "serving"}, "serving")
        eco = {
            "schema": 3, "kind": "eco", "run": {}, "metrics": [],
            "checks": [], "ok": True,
        }
        validate_payload(eco)
        with pytest.raises(ReproError, match="differs from this run's"):
            validate_payload(eco, "serving")
        bad_check = dict(
            eco, checks=[{"name": "x", "status": "mismatch", "detail": ""}]
        )
        with pytest.raises(ReproError, match="check 0"):
            validate_payload(bad_check)
        with pytest.raises(ReproError, match="disagrees"):
            validate_payload(
                dict(eco, checks=[{"name": "x", "status": "fail", "detail": ""}])
            )
