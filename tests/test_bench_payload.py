"""The one bench payload shape across its five producers.

Every checked-in ``BENCH_*.json`` passes the one validator; each kind's
fresh payload diffs clean against itself; the one renderer shows, in
both views, every number and check status of each kind (the quantities
the per-kind reports used to show are asserted by name); and the suite
gate refuses a baseline of another kind, or one it shares no metric
with, as a usage error.
"""

import html
import json
from pathlib import Path

import pytest

from repro.bench.__main__ import main as bench_main
from repro.obs import diff_payloads, load_payload, render_html, render_markdown
from repro.obs.render import _labels_text, _run_items, _value_text

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def _obs():
    from repro.bench import run_observed_suite

    return run_observed_suite(names=["bm1"], scale=0.1)


def _scale():
    from repro.bench import run_scale_curve

    return run_scale_curve(
        circuit="Test02", scales=(0.1, 0.2), algorithms=("fm",)
    )


def _eco():
    from repro.bench.eco_scenario import run_eco_scenario

    return run_eco_scenario("Test02", scale=0.3, deltas=2, min_speedup=0.0)


def _cache():
    from repro.bench.cache_scenario import run_cache_scenario

    return run_cache_scenario("bm1", scale=0.2)


def _serving():
    from repro.loadgen import parse_slo, run_serving_scenario

    payload, _result = run_serving_scenario(
        duration_s=1.0,
        concurrency=2,
        mix="igmatch=0.5,fm=0.3,eig1=0.2",
        slo=parse_slo("p99=2.0,error_rate=0.01"),
        distinct=2,
        scale=0.1,
    )
    return payload


_PRODUCERS = {
    "obs": _obs,
    "scale": _scale,
    "eco": _eco,
    "cache": _cache,
    "serving": _serving,
}


@pytest.fixture(scope="module")
def fresh():
    """``fresh(kind)``: one payload per kind, produced once per module."""
    made = {}

    def get(kind):
        if kind not in made:
            made[kind] = _PRODUCERS[kind]()
        return made[kind]

    return get


def _find(payload, name, **labels):
    (row,) = [
        m for m in payload["metrics"]
        if m["name"] == name and m["labels"] == labels
    ]
    return row


def assert_rendered(payload, required):
    """Both views show every metric (by labels, name and value), every
    check (name, status and detail) and every run setting; ``required``
    lists ``(name, labels)`` the old per-kind reports showed, which must
    be among the metrics."""
    markdown = render_markdown(payload)
    page = render_html(payload)
    for name, labels in required:
        _find(payload, name, **labels)
    for m in payload["metrics"]:
        shown = f"{m['name']}={_value_text(m)}"
        assert shown in markdown, shown
        assert html.escape(shown) in page, shown
        assert _labels_text(m["labels"]) in markdown
        assert html.escape(_labels_text(m["labels"])) in page
    for c in payload["checks"]:
        line = f"{c['name']} ({c['status']})"
        assert line + (f": {c['detail']}" if c["detail"] else "") in markdown
        row = "".join(
            f"<td>{html.escape(cell)}</td>"
            for cell in (c["name"], c["status"], c["detail"])
        )
        assert row in page, row
    for key, value in _run_items(payload):
        assert f"{key}={value}" in markdown
        assert html.escape(f"{key}={value}") in page
    return markdown, page


@pytest.mark.parametrize(
    "path", sorted(RESULTS.glob("BENCH_*.json")), ids=lambda p: p.name
)
def test_checked_in_payload_is_valid(path):
    # The IG-Match and FM gate baselines are suite (obs) payloads.
    if path.stem in ("BENCH_baseline", "BENCH_baseline_fm"):
        kind = "obs"
    else:
        kind = path.stem[len("BENCH_"):]
    assert load_payload(path, kind)["kind"] == kind


@pytest.mark.parametrize("kind", sorted(_PRODUCERS))
def test_fresh_payload_diffs_clean_against_itself(fresh, kind):
    payload = fresh(kind)
    diff = diff_payloads(payload, json.loads(json.dumps(payload)))
    assert not diff.has_regressions
    assert diff.common == len(payload["metrics"]) > 0
    assert diff.counts() == {"unchanged": len(payload["metrics"])}


class TestRendererLosesNothing:
    def test_obs(self, fresh):
        payload = fresh("obs")
        circuit = {"circuit": "bm1"}
        required = [
            (name, circuit)
            for name in (
                "modules", "nets", "nets_cut", "ratio_cut", "seconds",
                "matching.augmentations", "lanczos.iterations",
            )
        ]
        required += [
            ("phase.seconds", dict(circuit, phase="igmatch.sweep")),
            ("phase.count", dict(circuit, phase="igmatch.sweep")),
        ]
        _markdown, page = assert_rendered(payload, required)
        (trace,) = payload["traces"]
        spans = [e for e in trace["events"] if e["type"] == "span"]
        curves = [e for e in trace["events"] if e["type"] == "point"]
        # The flame view has a row per span, the curves a chart each.
        assert page.count('class="frow"') == len(spans) > 0
        assert page.count("<svg") == len(curves) > 0

    def test_scale(self, fresh):
        payload = fresh("scale")
        required = [
            (name, {"algorithm": "fm", "scale": scale})
            for scale in (0.1, 0.2)
            for name in ("modules", "nets", "wall_s", "peak_mem_bytes", "nets_cut")
        ]
        required += [
            ("wall_s", {"algorithm": "fm"}),
            ("peak_mem_bytes", {"algorithm": "fm"}),
        ]
        markdown, page = assert_rendered(payload, required)
        fit = _find(payload, "wall_s", algorithm="fm")
        for text in (markdown, page):
            assert f"^{fit['value']:.3f} ±{fit['stderr']:.3f}" in text
            assert f"(R²={fit['r2']:.3f})" in text
        # Measured points against the fitted power law, per exponent.
        assert page.count('class="pfit"') == 2
        assert page.count('class="pp"') == 2 * 2

    def test_eco(self, fresh):
        payload = fresh("eco")
        required = [
            ("wall_s", {"serve": "base"}),
            ("chain_wall_s", {"serve": "warm"}),
            ("chain_wall_s", {"serve": "cold"}),
            ("speedup", {}),
        ]
        required += [
            (name, {"edit": edit, "serve": serve})
            for edit in (0, 1)
            for serve in ("warm", "cold")
            for name in ("wall_s", "ratio_cut")
        ]
        assert_rendered(payload, required)
        assert len(payload["checks"]) == 5

    def test_cache(self, fresh):
        payload = fresh("cache")
        required = [
            ("wall_s", {"serve": "cold"}),
            ("wall_s", {"serve": "warm"}),
            ("speedup", {}),
        ]
        markdown, _page = assert_rendered(payload, required)
        assert "cold source=computed" in markdown
        assert "warm source=memory" in markdown

    def test_serving(self, fresh):
        payload = fresh("serving")
        required = [
            ("requests", {}),
            ("elapsed_s", {}),
            ("rps", {}),
            ("error_rate", {}),
            ("loadgen.request.duration_seconds.count", {}),
            ("loadgen.request.duration_seconds.count", {"outcome": "ok"}),
        ]
        required += [
            ("requests", {"outcome": outcome})
            for outcome in ("ok", "rejected", "error", "refused", "transport")
        ]
        required += [
            ("loadgen.request.duration_seconds", dict(labels, q=q))
            for labels in ({}, {"outcome": "ok"})
            for q in ("p50", "p95", "p99", "max")
        ]
        markdown, _page = assert_rendered(payload, required)
        for key in (
            "workload.concurrency=2", "workload.zipf_s=1.1",
            "workload.seed=0", "corpus.entries=2", "corpus.modules=",
            "corpus.nets=", "slo.p99=2.0",
        ):
            assert key in markdown, key
        slo = {c["name"]: c for c in payload["checks"] if c["name"].startswith("slo.")}
        assert set(slo) == {"slo.p99", "slo.error_rate"}
        assert "vs target 2.0" in slo["slo.p99"]["detail"]
        # The ok-only slice is the sum of its per-algorithm slices.
        ok_counts = [
            m["value"] for m in payload["metrics"]
            if m["name"] == "loadgen.request.duration_seconds.count"
            and m["labels"].get("outcome") == "ok"
            and "algorithm" in m["labels"]
        ]
        assert len(ok_counts) == 3
        assert sum(ok_counts) == _find(
            payload, "loadgen.request.duration_seconds.count", outcome="ok"
        )["value"] == _find(payload, "requests", outcome="ok")["value"]
        cross = [c for c in payload["checks"] if not c["name"].startswith("slo.")]
        assert cross and all(
            c["detail"].startswith("expected ") and ", observed " in c["detail"]
            for c in cross
        )


class TestBaselineOfAnotherKind:
    """``--compare`` reads only a baseline of the run's own kind."""

    @pytest.mark.parametrize(
        "name", ["BENCH_eco.json", "BENCH_scale.json", "BENCH_serving.json"]
    )
    def test_suite_refuses_checked_in_payload_of_another_kind(
        self, name, tmp_path, capsys
    ):
        code = bench_main([
            "Test02", "--scale", "0.05",
            "--compare", str(RESULTS / name), "--fail-on-regress",
            "--out", str(tmp_path / "BENCH_obs.json"),
        ])
        assert code == 2
        kind = name[len("BENCH_"):-len(".json")]
        assert f"kind {kind!r} differs from this run's 'obs'" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "BENCH_obs.json").exists()

    def test_baseline_sharing_no_metric_is_usage_error(self, tmp_path, capsys):
        baseline = tmp_path / "prim1.json"
        payload = _obs()
        for m in payload["metrics"]:
            m["labels"]["circuit"] = "Prim1"
        baseline.write_text(json.dumps(payload))
        code = bench_main([
            "bm1", "--scale", "0.1", "--compare", str(baseline),
            "--fail-on-regress", "--out", str(tmp_path / "BENCH_obs.json"),
        ])
        assert code == 2
        assert "shares no metric" in capsys.readouterr().err
