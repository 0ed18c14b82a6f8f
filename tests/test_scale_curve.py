"""Tests for scale-curve benchmarking (:mod:`repro.bench.scale_curve`),
the exponent-drift diff, and the ``--scale-curve`` CLI mode."""

import json

import pytest

from repro.bench import fit_power_law, run_scale_curve
from repro.bench.__main__ import main as bench_main
from repro.errors import ReproError
from repro.obs import (
    diff_payloads,
    load_payload,
    render_html,
    render_markdown,
    validate_payload,
    write_payload,
)

#: A tiny, fast ladder shared by the tests that need a real sweep.
_LADDER = dict(
    circuit="Test02",
    seed=0,
    scales=(0.1, 0.2, 0.4),
    algorithms=("fm",),
)


@pytest.fixture(scope="module")
def payload():
    return run_scale_curve(**_LADDER)


class TestFit:
    def test_recovers_exact_power_law(self):
        sizes = [10, 100, 1000, 10_000]
        values = [3.0 * n ** 2 for n in sizes]
        fit = fit_power_law(sizes, values)
        assert fit["exponent"] == pytest.approx(2.0, abs=1e-6)
        assert fit["coeff"] == pytest.approx(3.0, rel=1e-6)
        assert fit["stderr"] == pytest.approx(0.0, abs=1e-6)
        assert fit["r2"] == pytest.approx(1.0, abs=1e-6)

    def test_noisy_fit_reports_uncertainty(self):
        sizes = [10, 100, 1000, 10_000]
        values = [n ** 1.5 * f for n, f in zip(sizes, (1.3, 0.8, 1.2, 0.9))]
        fit = fit_power_law(sizes, values)
        assert fit["exponent"] == pytest.approx(1.5, abs=0.2)
        assert fit["stderr"] > 0
        assert 0 < fit["r2"] < 1

    def test_rejects_degenerate_ladders(self):
        with pytest.raises(ReproError):
            fit_power_law([100], [1.0])
        with pytest.raises(ReproError):
            fit_power_law([100, 100], [1.0, 2.0])
        with pytest.raises(ReproError):
            fit_power_law([100, 200], [1.0])


def _rungs(payload, algorithm="fm"):
    """Per-rung metric values, ``{scale: {name: value}}``."""
    rungs = {}
    for m in payload["metrics"]:
        if m["labels"].get("algorithm") == algorithm and "scale" in m["labels"]:
            rungs.setdefault(m["labels"]["scale"], {})[m["name"]] = m["value"]
    return rungs


def _exponents(payload):
    return {
        (m["labels"]["algorithm"], m["name"]): m
        for m in payload["metrics"]
        if m["kind"] == "exponent"
    }


class TestRunScaleCurve:
    def test_payload_is_schema_valid(self, payload):
        validate_payload(payload, "scale")
        assert payload["kind"] == "scale"
        assert payload["run"]["circuit"] == "Test02"

    def test_points_grow_along_the_ladder(self, payload):
        rungs = _rungs(payload)
        assert sorted(rungs) == [0.1, 0.2, 0.4]
        modules = [rungs[s]["modules"] for s in sorted(rungs)]
        assert modules == sorted(modules) and modules[0] < modules[-1]
        for rung in rungs.values():
            assert rung["wall_s"] > 0
            assert rung["peak_mem_bytes"] > 0
            assert rung["nets_cut"] >= 0

    def test_fits_present_for_both_metrics(self, payload):
        fits = _exponents(payload)
        assert set(fits) == {("fm", "wall_s"), ("fm", "peak_mem_bytes")}
        for fit in fits.values():
            assert fit["x"] == "modules"
            assert {"stderr", "coeff", "r2"} <= set(fit)
        # Memory of any sane implementation grows at least linearly-ish
        # and far slower than n^3.
        assert 0.1 < fits[("fm", "peak_mem_bytes")]["value"] < 3.0

    def test_rejects_single_rung(self):
        with pytest.raises(ReproError):
            run_scale_curve(circuit="Test02", scales=(0.2,))

    def test_writes_out_path(self, tmp_path):
        out = tmp_path / "BENCH_scale.json"
        write_payload(
            run_scale_curve(
                circuit="Test02", scales=(0.1, 0.2), algorithms=("fm",)
            ),
            out,
        )
        assert load_payload(out, "scale")["kind"] == "scale"


class TestValidate:
    def test_flags_structural_problems(self, payload):
        with pytest.raises(ReproError, match="not a bench payload"):
            validate_payload([])
        with pytest.raises(ReproError, match="kind"):
            validate_payload(payload, "obs")
        broken = json.loads(json.dumps(payload))
        exponent = next(
            i for i, m in enumerate(broken["metrics"]) if m["kind"] == "exponent"
        )
        del broken["metrics"][exponent]["stderr"]
        broken["metrics"][0].pop("value")
        with pytest.raises(ReproError) as info:
            validate_payload(broken)
        assert f"metric {exponent} ('wall_s'): an exponent needs" in str(info.value)
        assert "metric 0: missing ['value']" in str(info.value)


def _with_exponents(payload, delta):
    """Copy of ``payload`` with every fitted exponent shifted by
    ``delta`` and tight stderr, so the drift band stays at the floor."""
    copy = json.loads(json.dumps(payload))
    for m in copy["metrics"]:
        if m["kind"] == "exponent":
            m["value"] += delta
            m["stderr"] = 0.0
    return copy


class TestDiff:
    def test_self_diff_is_unchanged_and_passes(self, payload):
        diff = diff_payloads(payload, payload)
        assert not diff.has_regressions
        exponents = [f for f in diff.fields if f.kind == "exponent"]
        assert len(exponents) == 2  # time + memory for one algorithm
        assert all(f.status == "unchanged" for f in diff.fields)

    def test_grown_exponent_regresses_and_gates(self, payload):
        current = _with_exponents(payload, +1.0)
        baseline = _with_exponents(payload, 0.0)
        diff = diff_payloads(baseline, current)
        assert diff.has_regressions
        assert {(f.labels["algorithm"], f.name) for f in diff.regressions} == {
            ("fm", "wall_s"), ("fm", "peak_mem_bytes"),
        }
        assert all(f.gates and f.kind == "exponent" for f in diff.regressions)

    def test_shrunk_exponent_improves(self, payload):
        diff = diff_payloads(
            _with_exponents(payload, 0.0), _with_exponents(payload, -1.0)
        )
        assert not diff.has_regressions
        assert any(f.status == "improved" for f in diff.fields)

    def test_stderr_widens_the_band(self, payload):
        baseline = _with_exponents(payload, 0.0)
        current = _with_exponents(payload, +0.5)
        # 0.5 drift > 0.2 floor: regresses with exact fits...
        assert diff_payloads(baseline, current).has_regressions
        # ...but not when the fits themselves are that uncertain.
        for m in current["metrics"]:
            if m["kind"] == "exponent":
                m["stderr"] = 0.3
        assert not diff_payloads(baseline, current).has_regressions

    def test_wall_and_mem_fields_never_gate(self, payload):
        current = json.loads(json.dumps(payload))
        for m in current["metrics"]:
            if m["labels"].get("scale") == 0.4 and m["name"] in (
                "wall_s", "peak_mem_bytes"
            ):
                m["value"] *= 100
        diff = diff_payloads(payload, current)
        assert not diff.has_regressions  # advisory only
        by_name = {
            f.name: f.status for f in diff.fields if f.labels.get("scale") == 0.4
        }
        assert by_name["wall_s"] == "slower"
        assert by_name["peak_mem_bytes"] == "grew"

    def test_mismatched_config_is_surfaced(self, payload):
        other = json.loads(json.dumps(payload))
        other["run"]["circuit"] = "Prim1"
        other["run"]["seed"] = 7
        diff = diff_payloads(payload, other)
        assert set(diff.mismatched_config) == {"circuit", "seed"}

    def test_one_sided_algorithms_do_not_gate(self, payload):
        current = json.loads(json.dumps(payload))
        for m in current["metrics"]:
            m["labels"]["algorithm"] = "kl"
        diff = diff_payloads(payload, current)
        statuses = {(f.labels["algorithm"], f.status) for f in diff.fields}
        assert statuses == {("fm", "missing"), ("kl", "new")}
        assert not diff.has_regressions


class TestRender:
    def test_html_report_has_loglog_charts(self, payload):
        html = render_html(payload)
        assert html.count("<svg") == 2  # time + memory for one algorithm
        assert html.count('class="pfit"') == 2  # each with its fitted law
        assert html.count('class="pp"') == 2 * 3  # over its three rungs
        assert "log-log" in html
        assert "fm" in html

    def test_html_includes_diff_verdict(self, payload):
        diff = diff_payloads(
            _with_exponents(payload, 0.0), _with_exponents(payload, +1.0)
        )
        html = render_html(payload, diff=diff)
        assert "regressed" in html.lower()

    def test_markdown_summarises_fits_and_diff(self, payload):
        md = render_markdown(payload)
        assert "Test02" in md and "fm" in md and "modules^" in md
        md = render_markdown(payload, diff=diff_payloads(payload, payload))
        assert "no gated regressions" in md


class TestCli:
    def _run(self, *extra, tmp_path):
        out = tmp_path / "BENCH_scale.json"
        argv = [
            "--scale-curve", "--curve-circuit", "Test02",
            "--curve-scales", "0.1,0.2", "--curve-algorithms", "fm",
            "--out", str(out), *extra,
        ]
        return bench_main(argv), out

    def test_writes_valid_payload(self, tmp_path, capsys):
        rc, out = self._run(tmp_path=tmp_path)
        assert rc == 0
        load_payload(out, "scale")
        assert "modules^" in capsys.readouterr().out

    def test_compare_gates_on_drift(self, tmp_path, capsys):
        rc, out = self._run(tmp_path=tmp_path)
        assert rc == 0
        baseline = json.loads(out.read_text())
        low = tmp_path / "low.json"
        low.write_text(json.dumps(_with_exponents(baseline, -2.0)))
        rc, _ = self._run(
            "--compare", str(low), "--fail-on-regress", tmp_path=tmp_path
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err
        # Same baseline without --fail-on-regress reports but passes.
        rc, _ = self._run("--compare", str(low), tmp_path=tmp_path)
        assert rc == 0

    def test_bad_baseline_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        rc, _ = self._run("--compare", str(bad), tmp_path=tmp_path)
        assert rc == 2
        assert "not a usable bench payload" in capsys.readouterr().err

    def test_unknown_circuit_is_usage_error(self, tmp_path, capsys):
        rc = bench_main([
            "--scale-curve", "--curve-circuit", "nope",
            "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 2
        assert "unknown circuit" in capsys.readouterr().err

    def test_positional_names_rejected(self, tmp_path, capsys):
        rc = bench_main([
            "Test02", "--scale-curve", "--out", str(tmp_path / "x.json"),
        ])
        assert rc == 2
        assert "--curve-circuit" in capsys.readouterr().err

    def test_report_written(self, tmp_path):
        report = tmp_path / "scale.html"
        rc, _ = self._run("--report", str(report), tmp_path=tmp_path)
        assert rc == 0
        assert "<svg" in report.read_text()

    def test_checked_in_baseline_is_valid(self):
        from pathlib import Path

        path = (
            Path(__file__).resolve().parents[1]
            / "benchmarks" / "results" / "BENCH_scale.json"
        )
        baseline = load_payload(path, "scale")
        assert baseline["run"]["circuit"] == "Prim2"
        assert baseline["run"]["repeats"] == 2
        assert {a for a, _name in _exponents(baseline)} == {"ig-match", "fm"}
