"""Tests for bench payload diffing (:mod:`repro.obs.diff`) on the
suite's ``obs`` payloads, and the ``python -m repro.bench --compare``
exit-code gate."""

import json

import pytest

from repro.obs.diff import (
    EXACT,
    FASTER,
    GREW,
    IMPROVED,
    MISSING,
    NEW,
    NOISY,
    REGRESSED,
    SHRANK,
    SLOWER,
    UNCHANGED,
    DiffThresholds,
    diff_payloads,
    make_payload as build_payload,
    metric,
)

_PHASES = {
    "igmatch.sweep": {"seconds": 0.6, "count": 1},
    "spectral.fiedler": {"seconds": 0.2, "count": 1},
}
_COUNTERS = {"lanczos.iterations": 40, "matching.augmentations": 70}


def make_circuit(name="bm1", **overrides):
    """The metrics of one suite circuit, shaped like
    ``run_observed_suite``'s: exact sizes, cut, counters and phase
    counts; noisy seconds and memory."""
    values = dict(
        modules=88, nets=90, seconds=1.0, nets_cut=5, ratio_cut=2.5e-3,
        phases=_PHASES, counters=_COUNTERS, mem={},
    )
    values.update(overrides)
    labels = {"circuit": name}
    rows = [
        metric("modules", values["modules"], "count", EXACT, labels),
        metric("nets", values["nets"], "count", EXACT, labels),
        metric("nets_cut", values["nets_cut"], "count", EXACT, labels),
        metric("ratio_cut", values["ratio_cut"], "", EXACT, labels),
        metric("seconds", values["seconds"], "s", NOISY, labels),
    ]
    rows += [
        metric(key, value, "count", EXACT, labels)
        for key, value in values["counters"].items()
    ]
    for phase, data in values["phases"].items():
        phase_labels = dict(labels, phase=phase)
        rows.append(metric("phase.count", data["count"], "count", EXACT, phase_labels))
        rows.append(metric("phase.seconds", data["seconds"], "s", NOISY, phase_labels))
        for key in ("mem_alloc_bytes", "mem_peak_bytes"):
            if key in data:
                rows.append(
                    metric(f"phase.{key}", data[key], "bytes", NOISY, phase_labels)
                )
    rows += [
        metric(key, value, "bytes", NOISY, labels)
        for key, value in values["mem"].items()
    ]
    return rows


def make_payload(*circuits, **run):
    """An ``obs`` payload over ``circuits`` (default: one bm1)."""
    config = {"algorithm": "ig-match", "seed": 0, "scale": 0.1, "memprof": False}
    config.update(run)
    return build_payload(
        "obs", config, [m for c in circuits or [make_circuit()] for m in c]
    )


def field(diff, name, **labels):
    (found,) = [
        f
        for f in diff.fields
        if f.name == name
        and all(f.labels.get(k) == v for k, v in labels.items())
    ]
    return found


class TestDeterministicFields:
    def test_identical_payloads_have_no_changes(self):
        base = make_payload()
        diff = diff_payloads(base, json.loads(json.dumps(base)))
        assert not diff.has_regressions
        assert diff.counts() == {UNCHANGED: len(diff.fields)}
        assert diff.common == len(base["metrics"])

    def test_counter_increase_is_regression(self):
        base = make_payload()
        cur = make_payload(make_circuit(
            counters=dict(_COUNTERS, **{"lanczos.iterations": 55})
        ))
        diff = diff_payloads(base, cur)
        assert diff.has_regressions
        f = field(diff, "lanczos.iterations")
        assert f.status == REGRESSED
        assert f.gates and f.is_regression
        assert f.delta == 15

    def test_counter_decrease_is_improvement(self):
        cur = make_payload(make_circuit(
            counters=dict(_COUNTERS, **{"lanczos.iterations": 30})
        ))
        diff = diff_payloads(make_payload(), cur)
        assert not diff.has_regressions
        assert field(diff, "lanczos.iterations").status == IMPROVED
        assert len(diff.by_status(IMPROVED)) == 1

    def test_new_and_missing_counters(self):
        cur = make_payload(make_circuit(
            counters={"lanczos.iterations": 40, "fm.passes": 3}
        ))
        diff = diff_payloads(make_payload(), cur)
        assert not diff.has_regressions  # new/missing don't gate
        assert field(diff, "fm.passes").status == NEW
        assert field(diff, "matching.augmentations").status == MISSING

    def test_nets_cut_increase_regresses(self):
        cur = make_payload(make_circuit(nets_cut=6, ratio_cut=3.0e-3))
        diff = diff_payloads(make_payload(), cur)
        statuses = {f.name: f.status for f in diff.fields}
        assert statuses["nets_cut"] == REGRESSED
        assert statuses["ratio_cut"] == REGRESSED
        assert len(diff.regressions) == 2

    def test_ratio_cut_float_roundtrip_noise_is_equal(self):
        cur = make_payload(make_circuit(ratio_cut=2.5e-3 * (1 + 1e-12)))
        diff = diff_payloads(make_payload(), cur)
        assert field(diff, "ratio_cut").status == UNCHANGED

    def test_phase_count_change_regresses(self):
        phases = dict(_PHASES, **{"igmatch.sweep": {"seconds": 0.6, "count": 2}})
        diff = diff_payloads(make_payload(), make_payload(make_circuit(phases=phases)))
        assert [(f.name, f.labels["phase"]) for f in diff.regressions] == [
            ("phase.count", "igmatch.sweep")
        ]

    def test_phase_only_in_current_is_new(self):
        phases = dict(
            _PHASES, **{"igmatch.refinement": {"seconds": 0.01, "count": 1}}
        )
        diff = diff_payloads(make_payload(), make_payload(make_circuit(phases=phases)))
        new = diff.by_status(NEW)
        assert {f.name for f in new} == {"phase.count", "phase.seconds"}
        assert {f.labels["phase"] for f in new} == {"igmatch.refinement"}
        assert not diff.has_regressions


class TestWallClockFields:
    def test_jitter_within_tolerance_is_unchanged(self):
        cur = make_payload(make_circuit(seconds=1.2))  # +20% < 25%
        diff = diff_payloads(make_payload(), cur)
        assert field(diff, "seconds").status == UNCHANGED

    def test_large_slowdown_is_slower_but_never_gates(self):
        diff = diff_payloads(make_payload(), make_payload(make_circuit(seconds=2.0)))
        f = field(diff, "seconds")
        assert f.status == SLOWER
        assert not f.gates and not f.is_regression
        assert not diff.has_regressions
        assert diff.by_status(SLOWER) == [f]

    def test_large_speedup_is_faster(self):
        diff = diff_payloads(make_payload(), make_payload(make_circuit(seconds=0.4)))
        assert field(diff, "seconds").status == FASTER

    def test_zero_second_baseline_phase_uses_absolute_floor(self):
        def with_sweep_seconds(seconds):
            phases = dict(
                _PHASES, **{"igmatch.sweep": {"seconds": seconds, "count": 1}}
            )
            return make_payload(make_circuit(phases=phases))

        base = with_sweep_seconds(0.0)
        # Tiny absolute move on a zero baseline: infinite relative
        # change, but under the floor -> noise.
        diff = diff_payloads(base, with_sweep_seconds(0.015))
        assert field(diff, "phase.seconds", phase="igmatch.sweep").status == UNCHANGED
        # Above the floor the same zero baseline is a real slowdown.
        diff = diff_payloads(base, with_sweep_seconds(0.5))
        assert field(diff, "phase.seconds", phase="igmatch.sweep").status == SLOWER

    def test_custom_thresholds(self):
        thresholds = DiffThresholds(rel_tol=0.05, abs_floor_s=0.0)
        assert thresholds.verdict(1.0, 1.04) == UNCHANGED
        assert thresholds.verdict(1.0, 1.10) == SLOWER
        assert thresholds.verdict(1.0, 0.90) == FASTER
        # Other measured quantities (rates, speedups) grow and shrink.
        assert thresholds.verdict(10.0, 12.0, unit="1/s") == GREW
        assert thresholds.verdict(10.0, 8.0, unit="x") == SHRANK


class TestCircuitLevel:
    def test_circuit_only_in_baseline_is_missing(self):
        base = make_payload(make_circuit("bm1"), make_circuit("Prim1"))
        diff = diff_payloads(base, make_payload(make_circuit("bm1")))
        statuses = {
            (f.labels["circuit"], f.status) for f in diff.fields
        }
        assert statuses == {("bm1", UNCHANGED), ("Prim1", MISSING)}
        assert not diff.has_regressions

    def test_circuit_only_in_current_is_new(self):
        base = make_payload(make_circuit("bm1"))
        cur = make_payload(make_circuit("bm1"), make_circuit("Test05"))
        diff = diff_payloads(base, cur)
        assert {f.status for f in diff.fields if f.labels["circuit"] == "Test05"} == {NEW}
        assert not diff.has_regressions

    def test_mismatched_config_is_recorded(self):
        diff = diff_payloads(
            make_payload(), make_payload(scale=0.2, algorithm="rcut")
        )
        assert diff.mismatched_config == {
            "algorithm": ("ig-match", "rcut"),
            "scale": (0.1, 0.2),
        }


def _doctor(payload, name, delta, circuit="bm1"):
    """Shift one of ``circuit``'s metrics by ``delta``, in place."""
    (row,) = [
        m for m in payload["metrics"]
        if m["name"] == name and m["labels"] == {"circuit": circuit}
    ]
    row["value"] += delta
    return payload


class TestBenchCompareCli:
    """End-to-end exit codes of ``python -m repro.bench --compare``."""

    @pytest.fixture(scope="class")
    def baseline_path(self, tmp_path_factory):
        from repro.bench.__main__ import main

        path = tmp_path_factory.mktemp("bench") / "baseline.json"
        assert main(
            ["bm1", "--scale", "0.1", "--out", str(path)]
        ) == 0
        return path

    def run_compare(self, baseline, tmp_path, *extra):
        from repro.bench.__main__ import main

        return main(
            [
                "bm1", "--scale", "0.1",
                "--out", str(tmp_path / "current.json"),
                "--compare", str(baseline),
                *extra,
            ]
        )

    def doctored(self, baseline_path, tmp_path, name, delta):
        path = tmp_path / "doctored.json"
        payload = json.loads(baseline_path.read_text())
        path.write_text(json.dumps(_doctor(payload, name, delta)))
        return path

    def test_identical_seed_runs_exit_zero(
        self, baseline_path, tmp_path, capsys
    ):
        code = self.run_compare(
            baseline_path, tmp_path, "--fail-on-regress"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no gated regressions" in out

    def test_injected_counter_regression_exits_one(
        self, baseline_path, tmp_path, capsys
    ):
        doctored = self.doctored(
            baseline_path, tmp_path, "matching.augmentations", -1
        )
        code = self.run_compare(
            doctored, tmp_path, "--fail-on-regress"
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "matching.augmentations" in captured.out
        assert "FAIL: 1 gated regression" in captured.err

    def test_injected_cut_regression_exits_one(
        self, baseline_path, tmp_path
    ):
        doctored = self.doctored(baseline_path, tmp_path, "nets_cut", -1)
        assert (
            self.run_compare(doctored, tmp_path, "--fail-on-regress")
            == 1
        )

    def test_without_fail_flag_reports_but_exits_zero(
        self, baseline_path, tmp_path, capsys
    ):
        doctored = self.doctored(
            baseline_path, tmp_path, "matching.augmentations", -1
        )
        assert self.run_compare(doctored, tmp_path) == 0
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_baseline_file_exits_usage(self, tmp_path, capsys):
        assert (
            self.run_compare(tmp_path / "nope.json", tmp_path) == 2
        )
        assert "cannot read" in capsys.readouterr().err

    def test_unparsable_baseline_exits_usage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert self.run_compare(bad, tmp_path) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "Traceback" not in err

    def test_non_object_baseline_exits_usage(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]", encoding="utf-8")
        assert self.run_compare(bad, tmp_path) == 2
        err = capsys.readouterr().err
        assert "not a bench payload" in err

    def test_unknown_schema_baseline_exits_usage(
        self, baseline_path, tmp_path, capsys
    ):
        doctored = tmp_path / "future.json"
        payload = json.loads(baseline_path.read_text())
        payload["schema"] = 99
        doctored.write_text(json.dumps(payload))
        assert self.run_compare(doctored, tmp_path) == 2
        err = capsys.readouterr().err
        assert "unknown schema version 99" in err
        assert "Traceback" not in err

    def test_report_written_alongside_compare(
        self, baseline_path, tmp_path
    ):
        report = tmp_path / "report.html"
        code = self.run_compare(
            baseline_path, tmp_path, "--report", str(report)
        )
        assert code == 0
        html = report.read_text()
        assert "Baseline comparison" in html
        assert "<svg" in html


class TestBenchCliValidation:
    def test_list_prints_specs(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("bm1", "Prim2", "Test05"):
            assert name in out

    def test_unknown_name_suggests_closest(self, capsys):
        from repro.bench.__main__ import main

        assert main(["Test5"]) == 2
        err = capsys.readouterr().err
        assert "unknown circuit" in err
        assert "did you mean" in err
        assert "Test05" in err

    def test_case_insensitive_names_accepted(self, tmp_path):
        from repro.bench.__main__ import main

        assert main(
            ["BM1", "--scale", "0.1", "--out", str(tmp_path / "o.json")]
        ) == 0


class TestBenchCacheScenarioCli:
    """``python -m repro.bench --cache-scenario``: cold vs warm serve."""

    def test_scenario_passes_all_checks(self, tmp_path, capsys, monkeypatch):
        from repro.bench.__main__ import main

        # The default output is BENCH_cache.json, never the suite's
        # BENCH_obs.json (which a later --compare would read as a
        # suite baseline).
        monkeypatch.chdir(tmp_path)
        code = main(["bm1", "--cache-scenario", "--scale", "0.2"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert not (tmp_path / "BENCH_obs.json").exists()
        payload = json.loads((tmp_path / "BENCH_cache.json").read_text())
        assert payload["kind"] == "cache" and payload["ok"] is True
        checks = {c["name"]: c["status"] for c in payload["checks"]}
        assert checks == dict.fromkeys(
            [
                "warm_hit",
                "warm_skipped_compute",
                "cold_ran_compute",
                "results_identical",
                "counters_one_miss_one_hit",
            ],
            "pass",
        )
        assert "(fail)" not in captured.out
        assert captured.out.count("(pass)") == 5

    def test_scenario_rejects_multiple_circuits(self, capsys):
        from repro.bench.__main__ import main

        assert main(["bm1", "Test02", "--cache-scenario"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_scenario_unknown_circuit(self, capsys):
        from repro.bench.__main__ import main

        assert main(["NoSuch", "--cache-scenario"]) == 2
        assert "unknown circuit" in capsys.readouterr().err


class TestMemoryFields:
    """Memory quantities (unit ``bytes``) diff noise-aware and never
    gate: an RSS or heap watermark is machine state, not algorithm
    work."""

    def test_process_gauge_growth_never_gates(self):
        base = make_payload(make_circuit(
            mem={"rss_bytes": 50e6, "max_rss_bytes": 60e6},
        ))
        cur = make_payload(make_circuit(
            mem={"rss_bytes": 90e6, "max_rss_bytes": 95e6},
        ))
        diff = diff_payloads(base, cur)
        f = field(diff, "rss_bytes")
        assert f.status == GREW
        assert not f.gates
        assert not diff.has_regressions
        assert f in diff.by_status(GREW)

    def test_small_memory_jitter_is_unchanged(self):
        base = make_payload(make_circuit(mem={"rss_bytes": 50e6}))
        cur = make_payload(make_circuit(mem={"rss_bytes": 52e6}))
        diff = diff_payloads(base, cur)
        assert field(diff, "rss_bytes").status == UNCHANGED

    def test_below_absolute_floor_is_always_noise(self):
        # +400KiB is a huge relative change on a 100KiB baseline, but
        # under the 1MiB floor it is indistinguishable from allocator
        # jitter.
        base = make_payload(make_circuit(mem={"rss_bytes": 100e3}))
        cur = make_payload(make_circuit(mem={"rss_bytes": 500e3}))
        diff = diff_payloads(base, cur)
        assert field(diff, "rss_bytes").status == UNCHANGED

    def test_memory_shrink_is_reported(self):
        base = make_payload(make_circuit(mem={"rss_bytes": 90e6}))
        cur = make_payload(make_circuit(mem={"rss_bytes": 50e6}))
        diff = diff_payloads(base, cur)
        assert field(diff, "rss_bytes").status == SHRANK
        assert diff.by_status(GREW) == []

    def test_phase_mem_attribution_diffs_noise_aware(self):
        def with_phase_mem(peak):
            return make_circuit(phases={
                "igmatch.sweep": {
                    "seconds": 0.6, "count": 1,
                    "mem_alloc_bytes": 1_000_000,
                    "mem_peak_bytes": peak,
                },
            })

        diff = diff_payloads(
            make_payload(with_phase_mem(10_000_000)),
            make_payload(with_phase_mem(30_000_000)),
        )
        f = field(diff, "phase.mem_peak_bytes", phase="igmatch.sweep")
        assert f.unit == "bytes"
        assert f.status == GREW
        assert not diff.has_regressions
