"""The ECO front ends: ``repro-partition --delta/--base`` and
``python -m repro.bench --eco-scenario``."""

import json
import random

import pytest

from repro.cli import main
from repro.delta import random_delta, save_delta
from repro.hypergraph import save_net
from tests.conftest import random_hypergraph


@pytest.fixture
def eco_files(tmp_path):
    h = random_hypergraph(8, num_modules=30, num_nets=40)
    base = tmp_path / "base.net"
    save_net(h, base)
    delta = tmp_path / "delta.json"
    save_delta(random_delta(h, random.Random(4)), delta)
    return base, delta


class TestCliDelta:
    def test_delta_with_base_flag(self, eco_files, capsys):
        base, delta = eco_files
        assert main(["--delta", str(delta), "--base", str(base)]) == 0
        out = capsys.readouterr()
        assert "warm" in out.err
        assert "IG-Match" in out.out

    def test_delta_with_positional_base(self, eco_files, capsys):
        base, delta = eco_files
        assert main([str(base), "--delta", str(delta), "-a", "fm"]) == 0
        assert "FM" in capsys.readouterr().out

    def test_delta_json_output_marks_warm(self, eco_files, capsys):
        base, delta = eco_files
        assert main(
            ["--delta", str(delta), "--base", str(base), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["details"]["warm"] is True

    def test_base_without_delta_is_usage_error(self, eco_files):
        base, _delta = eco_files
        with pytest.raises(SystemExit):
            main(["--base", str(base)])

    def test_delta_with_cache_is_usage_error(self, eco_files, capsys):
        base, delta = eco_files
        assert (
            main(
                ["--delta", str(delta), "--base", str(base), "--cache"]
            )
            == 2
        )
        assert "--cache" in capsys.readouterr().err

    def test_delta_with_multiway_is_usage_error(self, eco_files, capsys):
        base, delta = eco_files
        assert (
            main(["--delta", str(delta), "--base", str(base), "-k", "4"])
            == 2
        )

    def test_missing_delta_file_is_reported(self, eco_files, capsys):
        base, _delta = eco_files
        assert (
            main(["--delta", "/nonexistent.json", "--base", str(base)])
            == 1
        )
        assert "error" in capsys.readouterr().err


class TestEcoScenario:
    def test_scenario_payload_shape_and_gates(self, tmp_path):
        from repro.bench.eco_scenario import run_eco_scenario

        from repro.obs import validate_payload

        payload = run_eco_scenario(
            "Test02", scale=0.3, deltas=2, min_speedup=0.0
        )
        validate_payload(json.loads(json.dumps(payload)), "eco")
        assert payload["run"]["deltas"] == 2
        edits = {
            m["labels"]["edit"]
            for m in payload["metrics"]
            if "edit" in m["labels"]
        }
        assert edits == {0, 1}
        assert {c["name"]: c["status"] for c in payload["checks"]} == dict.fromkeys(
            [
                "all_edits_served_warm",
                "quality_no_worse_than_cold",
                "speedup_at_least_min",
                "no_base_misses",
                "sessions_chained",
            ],
            "pass",
        )
        (warm,) = [
            m["value"] for m in payload["metrics"]
            if m["name"] == "service.delta.warm"
        ]
        assert warm == 2

    def test_cli_writes_record_and_gates(self, tmp_path, capsys):
        from repro.bench.__main__ import main as bench_main

        out = tmp_path / "BENCH_eco.json"
        code = bench_main(
            [
                "Test02",
                "--eco-scenario",
                "--scale",
                "0.3",
                "--eco-deltas",
                "2",
                "--eco-min-speedup",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "eco" and payload["ok"] is True
        assert "(pass)" in capsys.readouterr().out
