"""``POST /partition/delta`` over a real server: warm serving, no-op
replay, 404-with-reason on unknown bases, and body validation."""

import json
import random
import threading

import pytest

from repro.bench import build_circuit
from repro.delta import NetlistDelta, dumps_delta, random_delta
from repro.hypergraph import to_json
from repro.service import (
    PartitionEngine,
    PartitionRequest,
    canonical_result_bytes,
    create_server,
    payload_to_result,
    run_partitioner,
)
from tests.conftest import random_hypergraph
from tests.test_service_http import call


@pytest.fixture
def server():
    # No result cache, so every base serve computes.
    srv = create_server(engine=PartitionEngine())
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(5)


@pytest.fixture
def h():
    return random_hypergraph(5, num_modules=30, num_nets=40)


def _serve_base(server, h, algorithm="ig-match"):
    status, doc = call(
        server,
        "/partition",
        {"netlist": to_json(h), "algorithm": algorithm},
    )
    assert status == 200
    return doc


def _delta_doc(h, seed=13):
    return json.loads(dumps_delta(random_delta(h, random.Random(seed))))


NOOP = {"format": "repro-netlist-delta-v1"}


class TestDeltaServing:
    @pytest.mark.parametrize("algorithm", ["ig-match", "fm"])
    def test_warm_serve_returns_new_fingerprint(
        self, server, h, algorithm
    ):
        base = _serve_base(server, h, algorithm)
        status, doc = call(
            server,
            "/partition/delta",
            {
                "base": base["fingerprint"],
                "delta": _delta_doc(h),
                "algorithm": algorithm,
            },
        )
        assert status == 200
        assert doc["source"] == "delta-warm"
        assert doc["fingerprint"] != base["fingerprint"]
        assert doc["result"]["details"]["warm"] is True

    def test_chained_deltas_keep_serving_warm(self, server, h):
        base = _serve_base(server, h)
        fingerprint = base["fingerprint"]
        current = h
        rng = random.Random(3)
        for _ in range(3):
            delta = random_delta(current, rng)
            status, doc = call(
                server,
                "/partition/delta",
                {
                    "base": fingerprint,
                    "delta": json.loads(dumps_delta(delta)),
                    "algorithm": "ig-match",
                },
            )
            assert status == 200
            assert doc["source"] == "delta-warm"
            fingerprint = doc["fingerprint"]
            current = delta.apply(current)
        _status, metrics = call(server, "/metrics")
        assert metrics["service"]["service.delta.warm"] == 3
        assert metrics["service"]["service.delta.requests"] == 3
        assert metrics["service"]["service.session.entries"] == 4

    def test_noop_delta_replays_base_bytes(self, server, h):
        base = _serve_base(server, h)
        status, doc = call(
            server,
            "/partition/delta",
            {
                "base": base["fingerprint"],
                "delta": dict(NOOP),
                "algorithm": "ig-match",
            },
        )
        assert status == 200
        assert doc["source"] == "session"
        assert doc["cached"] is True
        assert doc["fingerprint"] == base["fingerprint"]
        assert canonical_result_bytes(
            payload_to_result(h, doc["result"])
        ) == canonical_result_bytes(
            payload_to_result(h, base["result"])
        )

    def test_delta_result_matches_cold_serve_of_edited(self, server, h):
        base = _serve_base(server, h)
        delta = random_delta(h, random.Random(29), module_churn=False)
        status, warm_doc = call(
            server,
            "/partition/delta",
            {
                "base": base["fingerprint"],
                "delta": json.loads(dumps_delta(delta)),
                "algorithm": "ig-match",
            },
        )
        assert status == 200
        edited = delta.apply(h)
        _status, cold_doc = call(
            server,
            "/partition",
            {"netlist": to_json(edited), "algorithm": "ig-match"},
        )
        assert (
            warm_doc["result"]["ratio_cut"]
            <= cold_doc["result"]["ratio_cut"]
        )
        assert warm_doc["fingerprint"] == cold_doc["fingerprint"]

    def test_fm_delta_on_ig_match_session_serves_cold(self, server):
        h = build_circuit("Test02", seed=0, scale=0.05)
        base = _serve_base(server, h, "ig-match")
        delta = random_delta(h, random.Random(1), module_churn=False)
        status, doc = call(
            server,
            "/partition/delta",
            {
                "base": base["fingerprint"],
                "delta": json.loads(dumps_delta(delta)),
                "algorithm": "fm",
            },
        )
        assert status == 200, doc
        assert doc["source"] == "delta-cold"
        edited = delta.apply(h)
        assert canonical_result_bytes(
            payload_to_result(edited, doc["result"])
        ) == canonical_result_bytes(
            run_partitioner(edited, PartitionRequest(algorithm="fm"))
        )


class TestDeltaErrors:
    def test_unknown_base_404_with_reason(self, server):
        status, doc = call(
            server,
            "/partition/delta",
            {"base": "0" * 64, "delta": dict(NOOP)},
        )
        assert status == 404
        assert "serve the base netlist first" in doc["reason"]
        assert doc["base"] == "0" * 64
        _status, metrics = call(server, "/metrics")
        assert metrics["service"]["service.delta.base_miss"] == 1

    def test_missing_delta_field_400(self, server, h):
        base = _serve_base(server, h)
        status, doc = call(
            server, "/partition/delta", {"base": base["fingerprint"]}
        )
        assert status == 400
        assert "delta" in doc["error"]

    def test_missing_base_field_400(self, server):
        status, doc = call(
            server, "/partition/delta", {"delta": dict(NOOP)}
        )
        assert status == 400
        assert "base" in doc["error"]

    def test_unknown_field_400(self, server, h):
        base = _serve_base(server, h)
        status, doc = call(
            server,
            "/partition/delta",
            {
                "base": base["fingerprint"],
                "delta": dict(NOOP),
                "netlist": to_json(h),
            },
        )
        assert status == 400
        assert "unknown request field" in doc["error"]

    def test_malformed_delta_document_400(self, server, h):
        base = _serve_base(server, h)
        status, doc = call(
            server,
            "/partition/delta",
            {
                "base": base["fingerprint"],
                "delta": {"format": "wrong-tag"},
            },
        )
        assert status == 400

    def test_invalid_delta_indices_400(self, server, h):
        base = _serve_base(server, h)
        bad = json.loads(
            dumps_delta(NetlistDelta(remove_nets=(10_000,)))
        )
        status, doc = call(
            server,
            "/partition/delta",
            {"base": base["fingerprint"], "delta": bad},
        )
        assert status == 400

    @pytest.mark.parametrize(
        "edit",
        [
            {"set_module_areas": {"0": float("nan")}},
            {"set_net_weights": {"0": float("inf")}},
        ],
        ids=["nan-area", "inf-weight"],
    )
    def test_non_finite_value_400(self, server, h, edit):
        base = _serve_base(server, h)
        status, doc = call(
            server,
            "/partition/delta",
            {"base": base["fingerprint"], "delta": dict(NOOP, **edit)},
        )
        assert status == 400
        assert "finite" in doc["error"]

    @pytest.mark.parametrize(
        "edit",
        [
            {"set_module_areas": {"0": "3"}},
            {"set_net_weights": {"0": True}},
            {"add_modules": [{"area": "2.5"}]},
        ],
        ids=["area-string", "weight-bool", "added-area-string"],
    )
    def test_non_number_value_400(self, server, h, edit):
        # float() read these as 3.0, 1.0 and 2.5 and served the delta.
        base = _serve_base(server, h)
        status, doc = call(
            server,
            "/partition/delta",
            {"base": base["fingerprint"], "delta": dict(NOOP, **edit)},
        )
        assert status == 400
        assert "must be a number" in doc["error"]

    @pytest.mark.parametrize(
        "edit",
        [
            {"add_nets": [{"pins": [1, True]}]},
            {"add_nets": [{"pins": [1, float("inf")]}]},
            {"add_nets": [{"pins": [1, 2.5]}]},
            {"add_nets": [{"pins": [1, 2], "index": "0"}]},
            {"add_modules": [{"index": 1.0}]},
            {"remove_nets": [0.5]},
            {"set_pins": {"0": [1, 2.5]}},
        ],
        ids=[
            "pin-bool", "pin-inf", "pin-float", "net-index-string",
            "module-index-float", "remove-net-float", "set-pins-float",
        ],
    )
    def test_non_integer_index_400(self, server, h, edit):
        # Infinity used to escape as a 500 OverflowError; the others
        # were truncated or coerced and served delta-warm.
        base = _serve_base(server, h)
        status, doc = call(
            server,
            "/partition/delta",
            {"base": base["fingerprint"], "delta": dict(NOOP, **edit)},
        )
        assert status == 400
        assert "must be an integer" in doc["error"]
