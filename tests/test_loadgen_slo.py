"""SLO spec tests: parsing, noise-aware verdicts, the gate."""

import pytest

from repro.errors import ReproError
from repro.loadgen import SLOSpec, evaluate_slo, parse_slo
from repro.obs.diff import DiffThresholds, check, make_payload


class TestParseSlo:
    def test_acceptance_form(self):
        spec = parse_slo("p99=2.0,error_rate=0.01")
        assert spec.p99 == 2.0
        assert spec.error_rate == 0.01
        assert spec.p50 is None and spec.rps is None

    def test_all_objectives(self):
        spec = parse_slo("p50=0.1,p95=0.5,p99=2.0,error_rate=0,rps=5")
        assert spec.objectives() == {
            "p50": 0.1,
            "p95": 0.5,
            "p99": 2.0,
            "error_rate": 0.0,
            "rps": 5.0,
        }

    def test_unknown_objective_rejected(self):
        with pytest.raises(ReproError, match="unknown SLO objective"):
            parse_slo("p42=1.0")

    def test_repeat_rejected(self):
        with pytest.raises(ReproError, match="repeated"):
            parse_slo("p99=1,p99=2")

    def test_missing_target_rejected(self):
        with pytest.raises(ReproError, match="needs"):
            parse_slo("p99")

    def test_bad_target_rejected(self):
        with pytest.raises(ReproError, match="bad target"):
            parse_slo("p99=fast")

    def test_negative_target_rejected(self):
        with pytest.raises(ReproError, match=">= 0"):
            parse_slo("rps=-1")

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            parse_slo("")
        with pytest.raises(ReproError):
            parse_slo(" , ")

    def test_describe_carries_noise_model(self):
        doc = parse_slo("p99=2.0").describe()
        assert doc["p99"] == 2.0
        assert doc["noise"] == {"rel_tol": 0.25, "abs_floor_s": 0.02}


def _verdict(rows, objective):
    return next(r for r in rows if r["objective"] == objective)["verdict"]


class TestEvaluateSlo:
    def test_latency_pass(self):
        spec = parse_slo("p99=2.0")
        rows = evaluate_slo(spec, {"p99": 0.5}, None, None)
        assert _verdict(rows, "p99") == "pass"

    def test_latency_hard_fail(self):
        spec = parse_slo("p99=1.0")
        rows = evaluate_slo(spec, {"p99": 2.0}, None, None)
        assert _verdict(rows, "p99") == "fail"

    def test_latency_breach_within_noise_band(self):
        # 2% over a 2 s ceiling is inside the 25% relative band —
        # re-running the load test could land either side of the line.
        spec = parse_slo("p99=2.0")
        rows = evaluate_slo(spec, {"p99": 2.04}, None, None)
        assert _verdict(rows, "p99") == "pass-within-noise"

    def test_tiny_target_uses_absolute_floor(self):
        # A 5 ms breach of a 1 ms ceiling is under the 20 ms absolute
        # floor: indistinguishable from scheduler jitter.
        spec = parse_slo("p50=0.001")
        rows = evaluate_slo(spec, {"p50": 0.006}, None, None)
        assert _verdict(rows, "p50") == "pass-within-noise"

    def test_quantile_without_data_is_skipped(self):
        spec = parse_slo("p99=1.0")
        rows = evaluate_slo(spec, {"p99": None}, None, None)
        assert _verdict(rows, "p99") == "skipped"

    def test_error_rate_is_exact(self):
        spec = parse_slo("error_rate=0.01")
        ok = evaluate_slo(spec, {}, 0.01, None)
        bad = evaluate_slo(spec, {}, 0.0101, None)
        assert _verdict(ok, "error_rate") == "pass"
        assert _verdict(bad, "error_rate") == "fail"

    def test_zero_error_budget(self):
        spec = parse_slo("error_rate=0")
        assert _verdict(evaluate_slo(spec, {}, 0.0, None), "error_rate") == "pass"
        assert _verdict(evaluate_slo(spec, {}, 0.001, None), "error_rate") == "fail"

    def test_rps_floor(self):
        spec = parse_slo("rps=100")
        assert _verdict(evaluate_slo(spec, {}, None, 150.0), "rps") == "pass"
        assert _verdict(evaluate_slo(spec, {}, None, 10.0), "rps") == "fail"
        # 5% under the floor is within the noise band.
        assert (
            _verdict(evaluate_slo(spec, {}, None, 95.0), "rps")
            == "pass-within-noise"
        )

    def test_unasserted_objectives_produce_no_rows(self):
        spec = parse_slo("p99=2.0")
        rows = evaluate_slo(spec, {"p50": 0.1, "p99": 0.1}, 0.5, 1.0)
        assert [r["objective"] for r in rows] == ["p99"]

    def test_custom_thresholds(self):
        spec = SLOSpec(
            p99=1.0, thresholds=DiffThresholds(rel_tol=0.0, abs_floor_s=0.0)
        )
        rows = evaluate_slo(spec, {"p99": 1.0001}, None, None)
        assert _verdict(rows, "p99") == "fail"


class TestSloOk:
    def test_gate(self):
        # The gate is the serving payload's ``ok``: each verdict becomes
        # one check, and only a hard ``fail`` turns the payload red.
        def ok(verdicts):
            checks = [check(f"slo.{i}", v) for i, v in enumerate(verdicts)]
            return make_payload("serving", {}, [], checks)["ok"]

        assert ok([])
        assert ok(["pass", "skipped"])
        assert ok(["pass-within-noise"])
        assert not ok(["pass", "fail"])
