"""Tests for trace/bench rendering (:mod:`repro.obs.render`)."""

import json

import pytest

from repro import obs
from repro.obs.render import (
    render_html,
    render_markdown,
    render_trace_html,
    span_tree_from_events,
)
from tests.test_obs_diff import make_circuit, make_payload


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpanTree:
    def test_rebuilds_nesting_from_depth_and_seq(self):
        sink = obs.MemorySink()
        with obs.enabled(sink=sink):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
                obs.add_timing("agg", 0.25, count=4)
            with obs.span("second"):
                pass
        roots = span_tree_from_events(sink.events)
        assert [n["name"] for n in roots] == ["outer", "second"]
        children = roots[0]["children"]
        assert [n["name"] for n in children] == ["inner", "inner", "agg"]
        assert children[2]["count"] == 4

    def test_ignores_points_and_counters(self):
        events = [
            {"type": "point", "name": "x", "seq": 1},
            {"type": "span", "name": "a", "dur_s": 0.1, "depth": 0,
             "seq": 2},
            {"type": "counters", "values": {"c": 1}},
        ]
        roots = span_tree_from_events(events)
        assert [n["name"] for n in roots] == ["a"]

    def test_orphan_depths_surface_as_roots(self):
        # A truncated trace whose parent span never closed.
        events = [
            {"type": "span", "name": "child", "dur_s": 0.1, "depth": 2,
             "seq": 1},
        ]
        assert [n["name"] for n in span_tree_from_events(events)] == [
            "child"
        ]


class TestTraceHtml:
    def build_events(self):
        sink = obs.MemorySink()
        with obs.enabled(sink=sink):
            with obs.span("igmatch", modules=40):
                with obs.span("spectral.fiedler", n=44):
                    pass
                obs.emit(
                    "igmatch.curve",
                    ranks=[1, 2, 3, 4],
                    ratio_cuts=[0.5, 0.25, 0.125, 0.3],
                    nets_cut=[4, 3, 2, 3],
                    matching_sizes=[4, 4, 4, 4],
                )
                obs.incr("matching.augmentations", 12)
        return sink.events

    def test_self_contained_html(self):
        html = render_trace_html(self.build_events())
        assert html.startswith("<!doctype html>")
        assert "igmatch" in html and "spectral.fiedler" in html
        assert "<svg" in html and "polyline" in html
        assert "matching.augmentations" in html
        # Self-contained: no external assets of any kind.
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html and "<link" not in html

    def test_empty_trace(self):
        assert "(no events)" in render_trace_html([])


class TestBenchHtml:
    def test_renders_real_suite_payload(self):
        from repro.bench import run_observed_suite

        payload = run_observed_suite(names=["bm1"], scale=0.1)
        html = render_html(payload)
        assert "bm1" in html
        assert 'class="frow"' in html  # phase-tree flame view
        assert "<svg" in html  # convergence curves
        assert "http://" not in html and "https://" not in html

    def test_diff_section_included(self):
        base = make_payload()
        cur = make_payload(
            make_circuit(counters={"lanczos.iterations": 99})
        )
        diff = obs.diff_payloads(base, cur)
        html = render_html(cur, diff=diff)
        assert "Baseline comparison" in html
        assert "REGRESSED" in html
        assert "lanczos.iterations" in html

    def test_config_mismatch_warning(self):
        diff = obs.diff_payloads(make_payload(seed=1), make_payload())
        html = render_html(make_payload(), diff=diff)
        assert "config mismatch" in html

    def test_json_roundtrip_of_payload_renders(self):
        from repro.bench import run_observed_suite

        payload = json.loads(
            json.dumps(run_observed_suite(names=["bm1"], scale=0.1))
        )
        assert "bm1" in render_html(payload)


class TestMarkdown:
    def test_clean_diff_summary(self):
        base = make_payload()
        diff = obs.diff_payloads(base, make_payload())
        text = render_markdown(make_payload(), diff)
        assert "no gated regressions" in text

    def test_regression_lines(self):
        cur = make_payload(
            make_circuit(counters={"lanczos.iterations": 99})
        )
        diff = obs.diff_payloads(make_payload(), cur)
        text = render_markdown(cur, diff)
        assert "REGRESSED" in text
        assert "circuit=bm1 lanczos.iterations: 40 → 99 (regressed)" in text
        # matching.augmentations disappeared.
        assert "circuit=bm1 matching.augmentations: 70 → — (missing)" in text

    def test_missing_circuit_line(self):
        base = make_payload(make_circuit("bm1"), make_circuit("Prim1"))
        cur = make_payload(make_circuit("bm1"))
        text = render_markdown(cur, obs.diff_payloads(base, cur))
        assert "circuit=Prim1 nets_cut: 5 → — (missing)" in text


class TestCurveDownsampling:
    def test_long_curves_are_thinned_but_keep_best_and_last(self):
        from repro.bench.suite import _downsample_curve

        n = 1000
        ratio = [1.0 / (1 + i) for i in range(n)]
        best = ratio.index(min(ratio))
        event = {
            "type": "point",
            "name": "igmatch.curve",
            "ranks": list(range(1, n + 1)),
            "ratio_cuts": ratio,
            "seq": 1,
        }
        sampled = _downsample_curve(event, limit=100)
        assert len(sampled["ranks"]) <= 102
        assert sampled["ranks"][-1] == n
        assert min(sampled["ratio_cuts"]) == min(ratio)
        assert event["ranks"][best] in sampled["ranks"]

    def test_short_curves_untouched(self):
        from repro.bench.suite import _downsample_curve

        event = {"name": "fm.curve", "passes": [0, 1], "cuts": [9, 4]}
        assert _downsample_curve(event) is event
