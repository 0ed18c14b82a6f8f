"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from layers import (
    COUNT_METRICS,
    LAYER_SPANS,
    SPAN_METRICS,
    TRACE_METRICS,
    LayerTracer,
)
from workloads import (
    WORKLOADS,
    Op,
    Pass,
    Workload,
    chain_pass,
    check_result,
    generate,
    setup_chains,
    suite_pass,
)

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "igmatch": replace(WORKLOADS["igmatch-suite"],
                       circuits=("Prim1", "Test04"), scale=0.1, instances=1),
    "fm": replace(WORKLOADS["fm-suite"], circuits=("Prim1",), scale=0.1,
                  instances=2),
    "eco": replace(WORKLOADS["eco-chain"], scale=0.1, instances=2,
                   chain_length=4),
}


def traced_pass(workload: Workload, seed: int, workdir: Path):
    """Generate fresh inputs, set up, and make one traced pass."""
    workdir.mkdir()
    inputs = generate(workload, seed, workdir)
    chains = []
    if workload.kind == "chain":
        chains, failures = setup_chains(workload, inputs)
        assert not failures
    tracer = LayerTracer()
    tracer.install()
    try:
        if chains:
            p = chain_pass(workload, chains, tracer)
        else:
            p = suite_pass(workload, inputs, tracer)
    finally:
        tracer.uninstall()
    tracer.finish_pass()
    return p, tracer


@pytest.mark.parametrize("kind", sorted(TINY))
def test_layer_counts_repeat_across_traced_runs(kind, tmp_path):
    workload = TINY[kind]
    first, tracer1 = traced_pass(workload, 3, tmp_path / "a")
    second, tracer2 = traced_pass(workload, 3, tmp_path / "b")
    assert all(op.failure is None for op in first.ops + second.ops)
    counts1, counts2 = dict(tracer1.counts), dict(tracer2.counts)
    # ARPACK runs to machine precision, so its iteration count can drift
    # by a few percent between identical calls; every other count repeats.
    lanczos = "spectral.lanczos_iterations"
    iterations = (counts1.pop(lanczos, 0), counts2.pop(lanczos, 0))
    assert max(iterations) - min(iterations) <= 0.25 * max(iterations)
    assert counts1 == counts2
    assert set(counts1) <= set(COUNT_METRICS)
    assert set(tracer1.self_s) <= set(SPAN_METRICS)
    spans = tracer1.layer_spans()
    for layer in workload.layers:
        assert spans[layer] > 0, layer


def test_steady_seconds_rescale_to_the_reference_speed():
    from workloads import REFERENCE_S, steady, timed

    # A host running at half speed doubles both the latency and the
    # reference work; the faster reference timing is taken.
    assert steady(2.0, 2 * REFERENCE_S, 3 * REFERENCE_S) == 1.0
    value, seconds, steady_s = timed(sum, [1, 2])
    assert value == 3 and 0.0 < seconds and 0.0 < steady_s


def test_uninstall_restores_entry_points():
    from repro.matching import IncrementalMatching
    from repro.partitioning import igmatch
    from repro.partitioning.fm import FMEngine

    before = (IncrementalMatching.__dict__["move_to_right"],
              igmatch.intersection_graph, FMEngine.__dict__["__init__"])
    tracer = LayerTracer()
    tracer.install()
    assert hasattr(igmatch.intersection_graph, "__wrapped__")
    tracer.uninstall()
    after = (IncrementalMatching.__dict__["move_to_right"],
             igmatch.intersection_graph, FMEngine.__dict__["__init__"])
    assert after == before


def test_check_rejects_corrupted_sides(tmp_path):
    from repro import load_net
    from repro.service.engine import PartitionRequest, run_partitioner

    workload = TINY["igmatch"]
    inputs = generate(workload, 1, tmp_path)
    h = load_net(inputs.netlists[0].path)
    result = run_partitioner(h, PartitionRequest())
    sides = list(result.partition.sides)
    assert check_result(h, sides, result.nets_cut, result.ratio_cut) is None

    # Move one module across: some net's cut state, and |U|·|W|, change.
    corrupted = list(sides)
    corrupted[0] = 1 - corrupted[0]
    assert check_result(h, corrupted, result.nets_cut,
                         result.ratio_cut) is not None
    assert "empty side" in check_result(h, [0] * h.num_modules, 0, 0.0)
    assert check_result(h, sides[:-1], result.nets_cut,
                        result.ratio_cut) is not None


def test_noop_delta_is_served_from_session_and_flagged(tmp_path):
    from repro.delta import DELTA_FORMAT

    workload = TINY["eco"]
    inputs = generate(workload, 2, tmp_path)
    inputs.netlists[0].deltas.insert(2, {"format": DELTA_FORMAT})
    chains, failures = setup_chains(workload, inputs)
    assert not failures
    for _ in range(2):  # a replayed chain serves the same way
        p = chain_pass(workload, chains)
        assert all(op.failure is None for op in p.ops)
        assert [op.noop for op in p.ops] == [i == 2 for i in range(9)]


def test_noop_deltas_stay_out_of_latency_metrics():
    ops = [Op(f"delta{i:02d}", 1.0 + i, 1.0 + i, 1.0, 1.0)
           for i in range(11)]
    ops.append(Op("delta11", 1e-6, 1e-6, 1.0, 1.0, noop=True))
    e2e = run.end_to_end([Pass(ops)], [(0.5, 0.5)],
                         [(1.0, 1.0), (1.5, 1.5), (0.5, 0.5)])
    assert e2e["delta_s.p50"]["value"] == 6.0
    assert e2e["delta_s.tail"] == {
        "value": 1.0, "percentile": 100.0 / 11, "samples": 11, "unit": "s",
    }
    assert e2e["noop_deltas"]["value"] == 1
    assert e2e["setup_s"]["value"] == 1.5
    # wall_s still counts the no-op serve: it is part of the chain.
    assert e2e["wall_s"]["value"] == pytest.approx(66.0 + 1e-6)


def test_each_op_keeps_its_best_latency_over_passes():
    # (label, seconds, steady seconds, ratio cut, planted ratio)
    first = Pass([Op("a", 2.0, 1.0, 1.0, 1.0), Op("b", 1.0, 2.0, 1.0, 1.0)])
    second = Pass([Op("a", 1.5, 1.5), Op("b", 3.0, 1.5),
                   Op("c", 9.0, 9.0, failure="x")])
    assert run.best_latencies([first, second]) == {"a": 1.0, "b": 1.5}
    assert run.best_latencies([first, second], "latency_s") == \
        {"a": 1.5, "b": 1.0}
    e2e = run.end_to_end([first, second],
                         [(0.5, 0.4), (0.25, 0.2), (9.0, 8.0)], [])
    assert e2e["wall_s"]["value"] == 2.5
    assert e2e["wall_s.raw"]["value"] == 2.5
    assert e2e["setup_s"]["value"] == 0.4
    assert e2e["setup_s.raw"]["value"] == 0.5
    assert "noop_deltas" not in e2e


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    found = run.tail([float(i) for i in range(1, 41)])
    assert found == {"value": 30.0, "percentile": 75.0, "samples": 40}


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [m["name"] for m in doc["per_layer"]] == \
        list(SPAN_METRICS + COUNT_METRICS + TRACE_METRICS)
    assert set(LAYER_SPANS) >= {
        layer for w in WORKLOADS.values() for layer in w.layers
    }


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eco-chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
