"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.hypergraph import load_net, save_net
from tests.conftest import random_hypergraph


@pytest.fixture
def netlist_file(tmp_path):
    h = random_hypergraph(1, num_modules=20, num_nets=24)
    path = tmp_path / "circuit.net"
    save_net(h, path)
    return path


class TestPartitioning:
    def test_default_algorithm(self, netlist_file, capsys):
        assert main([str(netlist_file)]) == 0
        out = capsys.readouterr().out
        assert "IG-Match" in out
        assert "ratio cut" in out

    @pytest.mark.parametrize(
        "algorithm",
        ["ig-vote", "eig1", "fm", "kl", "multilevel"],
    )
    def test_each_algorithm(self, netlist_file, capsys, algorithm):
        assert main([str(netlist_file), "-a", algorithm]) == 0
        assert capsys.readouterr().out.strip()

    def test_rcut_with_restarts(self, netlist_file, capsys):
        assert main(
            [str(netlist_file), "-a", "rcut", "--restarts", "2"]
        ) == 0

    def test_json_output(self, netlist_file, capsys):
        assert main([str(netlist_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "IG-Match"
        assert "ratio_cut" in payload

    def test_stats_flag(self, netlist_file, capsys):
        assert main([str(netlist_file), "--stats"]) == 0
        assert "modules" in capsys.readouterr().out

    def test_sides_out(self, netlist_file, tmp_path, capsys):
        sides = tmp_path / "sides.txt"
        assert main([str(netlist_file), "--sides-out", str(sides)]) == 0
        lines = sides.read_text().strip().splitlines()
        assert len(lines) == 20
        assert all(line.split()[1] in ("0", "1") for line in lines)


class TestGenerate:
    def test_generate_and_partition(self, capsys):
        assert main(
            ["--generate", "bm1", "--scale", "0.05", "-a", "ig-vote"]
        ) == 0

    def test_generate_save(self, tmp_path, capsys):
        out = tmp_path / "gen.net"
        assert main(
            ["--generate", "Prim1", "--scale", "0.05", "--save", str(out)]
        ) == 0
        h = load_net(out)
        assert h.num_modules > 0


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro-partition" in out
        # Some version number must be reported.
        assert any(ch.isdigit() for ch in out)

    def test_pyproject_version_is_package_version(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        found = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert found is not None
        assert found.group(1) == repro.__version__


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["/no/such/file.net"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_suffix_is_rejected(self, tmp_path, capsys):
        bogus = tmp_path / "circuit.xyz"
        bogus.write_text("not a netlist\n")
        assert main([str(bogus)]) == 1
        err = capsys.readouterr().err
        assert "unsupported netlist extension" in err
        for ext in (".net", ".json", ".hgr", ".v"):
            assert ext in err

    def test_no_input(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("blocks", ["0", "1", "-3"])
    def test_blocks_below_two_is_a_usage_error(self, blocks, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--generate", "Test02", "--scale", "0.05",
                  "--blocks", blocks])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--blocks must be >= 2" in captured.err

    def test_json_netlist_input(self, tmp_path, capsys):
        from repro.hypergraph import save_json

        h = random_hypergraph(2, num_modules=12, num_nets=14)
        path = tmp_path / "c.json"
        save_json(h, path)
        assert main([str(path)]) == 0
