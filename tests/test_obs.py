"""Tests for the observability layer (:mod:`repro.obs`)."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.hypergraph import save_net
from tests.conftest import random_hypergraph


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with instrumentation fully off."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpans:
    def test_spans_nest(self):
        obs.enable()
        with obs.span("outer", label="a"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        roots = obs.STATE.roots
        assert [n.name for n in roots] == ["outer"]
        assert [n.name for n in roots[0].children] == ["inner", "inner"]
        assert roots[0].attrs["label"] == "a"
        assert roots[0].seconds >= 0.0

    def test_span_events_carry_depth(self):
        sink = obs.MemorySink()
        obs.enable(sink=sink)
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        spans = [e for e in sink.events if e["type"] == "span"]
        # Inner closes first at depth 1, outer last at depth 0.
        assert [(e["name"], e["depth"]) for e in spans] == [
            ("inner", 1),
            ("outer", 0),
        ]

    def test_set_attaches_attrs(self):
        obs.enable()
        with obs.span("phase") as sp:
            sp.set(iterations=7)
        assert obs.STATE.roots[0].attrs["iterations"] == 7

    def test_add_timing_files_aggregate_under_open_span(self):
        obs.enable()
        with obs.span("sweep"):
            obs.add_timing("sweep.inner", 0.5, count=10, items=3)
        node = obs.STATE.roots[0].children[0]
        assert node.name == "sweep.inner"
        assert node.seconds == 0.5
        assert node.count == 10

    def test_span_records_exception(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        assert obs.STATE.roots[0].attrs["error"] == "ValueError"
        assert not obs.STATE.stack


class TestCounters:
    def test_incr_and_gauge(self):
        obs.enable()
        obs.incr("a", 2)
        obs.incr("a")
        obs.gauge("b", 9)
        obs.gauge("b", 4)
        assert obs.counters() == {"a": 3, "b": 4}

    def test_counters_reset_between_runs(self):
        obs.enable()
        obs.incr("a", 5)
        obs.disable()
        obs.enable()  # a fresh session must not inherit counters
        assert obs.counters() == {}
        obs.incr("a")
        assert obs.counters() == {"a": 1}

    def test_reset_counters_only(self):
        obs.enable()
        with obs.span("phase"):
            obs.incr("a")
        obs.reset_counters()
        assert obs.counters() == {}
        assert obs.STATE.roots  # spans survive a counter reset

    def test_gauges_slices_out_gauge_subset(self):
        obs.enable()
        obs.incr("service.requests", 3)
        obs.gauge("service.queue.depth", 7)
        obs.gauge("pool.size", 2)
        assert obs.gauges() == {"pool.size": 2, "service.queue.depth": 7}
        assert obs.gauges(prefix="service.") == {"service.queue.depth": 7}
        # counters() still sees everything, same as before.
        assert obs.counters(prefix="service.") == {
            "service.queue.depth": 7,
            "service.requests": 3,
        }

    def test_gauges_last_write_wins_even_after_incr(self):
        obs.enable()
        obs.incr("x", 5)
        obs.gauge("x", 1)  # re-recorded as a gauge
        assert obs.gauges() == {"x": 1}

    def test_gauges_cleared_by_reset_counters(self):
        obs.enable()
        obs.gauge("g", 1)
        obs.reset_counters()
        assert obs.gauges() == {}
        obs.incr("g")  # same name, now a plain counter
        assert obs.gauges() == {}
        assert obs.counters() == {"g": 1}


class TestEnabledContext:
    def test_scopes_instrumentation(self):
        with obs.enabled() as state:
            assert state is obs.current_state()
            assert obs.is_enabled()
            obs.incr("a")
        assert not obs.is_enabled()
        assert obs.counters() == {"a": 1}  # data readable after exit

    def test_disables_on_exception(self):
        sink = obs.MemorySink()
        with pytest.raises(RuntimeError):
            with obs.enabled(sink=sink):
                obs.incr("a")
                raise RuntimeError("boom")
        assert not obs.is_enabled()
        assert sink.closed
        # The final counters event was still flushed on the way out.
        assert sink.events[-1]["type"] == "counters"
        assert sink.events[-1]["values"] == {"a": 1}


class TestDisabledMode:
    def test_disabled_emits_and_collects_nothing(self):
        sink = obs.MemorySink()
        obs.STATE.sinks.append(sink)  # sink present but switch off
        with obs.span("phase") as sp:
            sp.set(x=1)
        obs.incr("a")
        obs.gauge("b", 2)
        obs.add_timing("agg", 1.0)
        obs.emit("point", x=1)
        assert sink.events == []
        assert obs.STATE.roots == []
        assert obs.counters() == {}

    def test_disabled_span_is_shared_noop(self):
        assert obs.span("x") is obs.span("y")


class TestJsonLines:
    def test_trace_round_trips_through_json_loads(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs.enable(sink=obs.JsonLinesSink(path))
        with obs.span("phase", n=3):
            obs.emit("observation", value=1.5)
            obs.incr("counter.total", 4)
        obs.disable()
        lines = path.read_text().strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["type"] for e in events] == ["point", "span", "counters"]
        assert events[0] == {
            "type": "point",
            "name": "observation",
            "value": 1.5,
            "seq": 1,
        }
        assert events[1]["name"] == "phase"
        assert events[1]["n"] == 3
        assert events[2]["values"] == {"counter.total": 4}

    def test_disable_closes_sink(self, tmp_path):
        sink = obs.JsonLinesSink(tmp_path / "t.jsonl")
        obs.enable(sink=sink)
        obs.disable()
        assert sink._file.closed


class TestReport:
    def test_phase_report_merges_siblings_and_lists_counters(self):
        obs.enable()
        with obs.span("run"):
            obs.add_timing("level", 0.25, count=1, modules=10)
            obs.add_timing("level", 0.75, count=1, modules=20)
        obs.incr("work.items", 30)
        report = obs.phase_report()
        assert "run" in report
        assert "×2" in report
        assert "modules=30" in report  # numeric attrs sum on merge
        assert "work.items" in report

    def test_flatten_totals(self):
        obs.enable()
        with obs.span("a"):
            obs.add_timing("b", 0.5, count=2)
        with obs.span("a"):
            pass
        totals = obs.flatten_totals()
        assert totals["a"][1] == 2
        assert totals["b"] == (0.5, 2)

    def test_empty_report(self):
        obs.enable()
        assert "no observability data" in obs.phase_report()


class TestPipelineInstrumentation:
    def test_igmatch_populates_spans_and_counters(self):
        from repro import ig_match

        h = random_hypergraph(3, num_modules=40, num_nets=44)
        sink = obs.MemorySink()
        obs.enable(sink=sink)
        ig_match(h)
        totals = obs.flatten_totals()
        for name in (
            "igmatch",
            "intersection.build",
            "igmatch.sweep",
            "igmatch.matching",
            "igmatch.completion",
            "igmatch.refinement",
        ):
            assert name in totals, name
        counters = obs.counters()
        assert counters["igmatch.splits_evaluated"] > 0
        assert counters["matching.augmentations"] > 0
        sweep_events = [
            e for e in sink.events
            if e["type"] == "point" and e["name"] == "igmatch.sweep"
        ]
        assert sweep_events and "augmentations" in sweep_events[0]

    def test_lanczos_reports_iterations(self):
        from repro import ig_match

        h = random_hypergraph(4, num_modules=40, num_nets=44)
        sink = obs.MemorySink()
        obs.enable(sink=sink)
        ig_match(h)
        lanczos = [
            e for e in sink.events
            if e["type"] == "point" and e["name"] == "spectral.lanczos"
        ]
        assert lanczos and lanczos[0]["iterations"] > 0
        assert obs.counters()["lanczos.iterations"] > 0

    def test_instrumentation_does_not_change_results(self):
        from repro import ig_match

        h = random_hypergraph(5, num_modules=50, num_nets=55)
        baseline = ig_match(h)
        with obs.enabled():
            observed = ig_match(h)
        assert observed.partition.sides == baseline.partition.sides
        assert observed.nets_cut == baseline.nets_cut

    def test_igmatch_curve_matches_sweep(self):
        from repro import ig_match

        h = random_hypergraph(9, num_modules=40, num_nets=44)
        sink = obs.MemorySink()
        with obs.enabled(sink=sink):
            result = ig_match(h)
        curves = [
            e for e in sink.events if e.get("name") == "igmatch.curve"
        ]
        assert curves
        curve = curves[0]
        assert len(curve["ranks"]) == len(curve["ratio_cuts"])
        best_i = curve["ratio_cuts"].index(min(curve["ratio_cuts"]))
        assert curve["ranks"][best_i] == result.details["best_rank"]

    def test_splits_curve_event(self):
        from repro import eig1

        h = random_hypergraph(10, num_modules=36, num_nets=40)
        sink = obs.MemorySink()
        with obs.enabled(sink=sink):
            eig1(h)
        curves = [
            e for e in sink.events if e.get("name") == "splits.curve"
        ]
        assert curves
        curve = curves[0]
        assert len(curve["ranks"]) == h.num_modules - 1
        best_i = curve["ratio_cuts"].index(min(curve["ratio_cuts"]))
        assert curve["ranks"][best_i] == curve["best_rank"]

    def test_fm_curve_event(self):
        from repro import fm_bipartition

        h = random_hypergraph(11, num_modules=40, num_nets=44)
        sink = obs.MemorySink()
        with obs.enabled(sink=sink):
            fm_bipartition(h)
        curves = [
            e for e in sink.events if e.get("name") == "fm.curve"
        ]
        assert curves
        curve = curves[0]
        assert curve["cuts"][0] == curve["cut_initial"]
        assert len(curve["passes"]) == len(curve["cuts"])
        # FM never ends a pass loop worse than it started.
        assert curve["cuts"][-1] <= curve["cuts"][0]

    def test_fm_pass_events(self):
        from repro import fm_bipartition

        h = random_hypergraph(6, num_modules=40, num_nets=44)
        sink = obs.MemorySink()
        obs.enable(sink=sink)
        fm_bipartition(h)
        passes = [
            e for e in sink.events
            if e["type"] == "point" and e["name"] == "fm.pass"
        ]
        assert passes
        assert all(
            e["kept"] <= e["moved"] and "cut_after" in e for e in passes
        )
        assert obs.counters()["fm.passes"] == len(passes)


class TestCliFlags:
    @pytest.fixture
    def netlist_file(self, tmp_path):
        h = random_hypergraph(7, num_modules=30, num_nets=34)
        path = tmp_path / "circuit.net"
        save_net(h, path)
        return path

    def test_profile_prints_phase_tree(self, netlist_file, capsys):
        assert main([str(netlist_file), "--profile"]) == 0
        err = capsys.readouterr().err
        assert "phase tree" in err
        assert "intersection.build" in err
        assert "spectral.lanczos" in err
        assert "igmatch.sweep" in err
        assert "igmatch.completion" in err
        assert "igmatch.refinement" in err
        assert "counters:" in err
        assert "matching.augmentations" in err

    def test_trace_json_end_to_end(self, netlist_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(
            [str(netlist_file), "--trace-json", str(trace)]
        ) == 0
        events = [
            json.loads(line)
            for line in trace.read_text().strip().splitlines()
        ]
        assert events, "trace must not be empty"
        names = {e.get("name") for e in events}
        assert "spectral.lanczos" in names
        assert "igmatch.sweep" in names
        lanczos = next(
            e for e in events if e.get("name") == "spectral.lanczos"
            and e["type"] == "point"
        )
        assert lanczos["iterations"] > 0
        final = events[-1]
        assert final["type"] == "counters"
        assert final["values"]["matching.augmentations"] > 0

    def test_profile_on_generated_circuit(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(
            [
                "--generate", "bm1", "--scale", "0.1",
                "--profile", "--trace-json", str(trace),
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "phase tree" in err
        assert trace.exists()

    def test_trace_html_report(self, netlist_file, tmp_path, capsys):
        out = tmp_path / "trace.html"
        assert main([str(netlist_file), "--trace-html", str(out)]) == 0
        assert "wrote trace report" in capsys.readouterr().err
        html = out.read_text()
        assert 'class="frow"' in html  # phase-tree flame view
        assert "igmatch" in html
        assert "<svg" in html  # igmatch.curve convergence chart
        assert not obs.is_enabled()

    def test_obs_disabled_after_cli_run(self, netlist_file, capsys):
        assert main([str(netlist_file), "--profile"]) == 0
        assert not obs.is_enabled()


class TestObservedSuite:
    def test_run_observed_suite_payload_and_file(self, tmp_path):
        from repro.bench import run_observed_suite

        out = tmp_path / "BENCH_obs.json"
        payload = run_observed_suite(names=["bm1"], scale=0.1)
        obs.write_payload(payload, out)
        assert (payload["schema"], payload["kind"]) == (3, "obs")
        values = {
            (m["name"], m["labels"].get("phase")): m["value"]
            for m in payload["metrics"]
        }
        assert {m["labels"]["circuit"] for m in payload["metrics"]} == {"bm1"}
        assert values[("nets_cut", None)] >= 0
        assert values[("phase.count", "igmatch.sweep")] == 1
        assert values[("matching.augmentations", None)] > 0
        # The trace keeps the raw span events (for the phase-tree flame
        # view) and the convergence curves.
        (trace,) = payload["traces"]
        assert trace["labels"] == {"circuit": "bm1"}
        names = {(e["type"], e["name"]) for e in trace["events"]}
        assert ("span", "igmatch") in names
        assert ("point", "igmatch.curve") in names
        on_disk = obs.load_payload(out, "obs")
        assert on_disk == payload
        assert not obs.is_enabled()
