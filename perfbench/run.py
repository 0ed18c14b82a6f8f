"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload igmatch-suite --seed 1 \\
        --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run generates its inputs from ``--seed``, sets up, then
repeats passes over the workload's ops until the next pass would end
after ``--seconds`` (counted from the start of set-up).  ``--trace 0``
measures end to end with nothing traced; ``--trace 1`` alternates
untraced and traced passes and reports per-layer figures (see
``perfbench/README.md``).

Standard output ends with two JSON lines: a report (provenance, every
end-to-end metric by name and unit, failures) and the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every op passed its correctness check (and, traced, every
expected layer recorded spans).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Environment that selects a core, pool or cache; every run clears it
#: so the program runs its defaults.
PINNED_ENV = ("REPRO_CORE", "REPRO_WORKERS", "REPRO_BACKEND",
              "REPRO_CACHE_DIR")

#: Fewest fresh interpreters timed importing the program (``setup_s``).
IMPORT_SAMPLES = 3
#: Run in a fresh interpreter: the reference work is timed there, around
#: the import itself, since the parent may run on another core.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, {perfbench!r}); "
    "from workloads import reference_s, steady; before = reference_s(); "
    "start = time.perf_counter(); import repro; "
    "seconds = time.perf_counter() - start; "
    "print(seconds, steady(seconds, before, reference_s()))"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ratio_cut.gmean": "x_planted",
    "peak_rss_mb": "MiB",
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _gmean(values: List[float]) -> float:
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def import_seconds() -> Tuple[float, float]:
    """Seconds, and steady seconds, of ``import repro`` in a fresh
    interpreter that has loaded only this benchmark's ``workloads``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(perfbench=str(HERE))],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    seconds, steady_s = done.stdout.split()[-2:]
    return float(seconds), float(steady_s)


def tail(samples: List[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return {"value": sorted(samples)[rank - 1],
            "percentile": 100.0 * rank / n, "samples": n}


def provenance(seed: int, inputs: Any, gen_s: float) -> Dict[str, Any]:
    import numpy
    import scipy

    import repro
    from repro.parallel import resolve_parallel

    parallel = resolve_parallel()
    try:
        from repro.core import get_core
        core = get_core()
    except ImportError:  # single-core program
        core = "n/a"
    return {
        "seed": seed,
        "inputs_sha256": inputs.digests,
        "generate_s": gen_s,
        "config": {
            "repro": repro.__version__,
            "core": core,
            "workers": parallel.effective_workers(),
            "backend": parallel.backend,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "cleared_env": list(PINNED_ENV),
        },
    }


def check_repeats(passes: List[Any]) -> List[str]:
    """Failures for ops whose answer changed between passes."""
    first = {op.label: op.answer for op in passes[0].ops}
    return [
        f"{op.label}: answer differs between passes"
        for p in passes[1:]
        for op in p.ops
        if op.failure is None and op.label in first
        and op.answer != first[op.label]
    ]


def best_latencies(passes: List[Any],
                   attr: str = "steady_s") -> Dict[str, float]:
    """Each answered op's lowest latency over ``passes``.

    Every pass repeats the same deterministic ops, so an op's latencies
    differ only by the machine's interference, which only ever adds.
    ``attr`` picks steady (reference-speed) or raw (``"latency_s"``)
    seconds.
    """
    best: Dict[str, float] = {}
    for p in passes:
        for op in p.ops:
            if op.failure is None:
                best[op.label] = min(best.get(op.label, math.inf),
                                     getattr(op, attr))
    return best


def end_to_end(passes: List[Any], import_s: List[Tuple[float, float]],
               setups_s: List[Tuple[float, float]]) -> Dict[str, Any]:
    """Every end-to-end metric of the untraced passes.

    Set-ups come as ``(seconds, steady seconds)``.  ``wall_s`` sums
    each op's best steady latency over the passes; ``*.raw`` are the
    same figures in plain seconds.  On a chain (``setups_s`` given) the
    report adds ``delta_s.p50``, the median of the best steady
    latencies, and ``delta_s.tail``, a high percentile of the plain
    latency of every serve; both leave out no-op deltas.
    """
    def setup(column: int) -> float:
        return (_median([pair[column] for pair in import_s])
                + _median([pair[column] for pair in setups_s]))

    best = best_latencies(passes)
    answered = [op for op in passes[0].ops if op.failure is None]
    metrics = {
        "setup_s": setup(1),
        "wall_s": sum(best.values()),
        "ratio_cut.gmean": _gmean(
            [op.ratio_cut / op.planted_ratio for op in answered]
        ),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    out: Dict[str, Any] = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in metrics.items()
    }
    out["setup_s.raw"] = {
        "value": setup(0),
        "unit": "s",
    }
    out["wall_s.raw"] = {
        "value": sum(best_latencies(passes, "latency_s").values()),
        "unit": "s",
    }
    out["ratio_cut.raw_gmean"] = {
        "value": _gmean([op.ratio_cut for op in answered]), "unit": "ratio",
    }
    if setups_s:
        noops = {op.label for op in passes[0].ops if op.noop}
        out["delta_s.p50"] = {
            "value": _median([v for label, v in best.items()
                              if label not in noops]),
            "unit": "s",
        }
        found = tail([op.latency_s for p in passes for op in p.ops
                      if op.failure is None and not op.noop])
        if found is not None:
            out["delta_s.tail"] = dict(found, unit="s")
        out["noop_deltas"] = {"value": len(noops), "unit": "count"}
    return out


def per_layer(workload: Any, untraced: List[Any], traced: List[Any],
              layer_runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-layer metrics of the traced passes, the layer-guard failures,
    and the counts that differed between traced passes (``drift``).

    Counts are the median over the traced passes.  All but one repeat
    exactly: ``spectral.lanczos_iterations`` counts ARPACK iterations
    run to machine precision, which can differ by a few percent between
    identical calls, so drift is reported rather than failed.
    """
    from layers import COUNT_METRICS, SPAN_METRICS

    failures = []
    drift = {}
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in SPAN_METRICS:
        metrics[name] = {
            "value": _median([r["self_s"].get(name, 0.0)
                              for r in layer_runs]),
            "unit": "s",
        }
    for name in COUNT_METRICS:
        values = [r["counts"].get(name, 0) for r in layer_runs]
        if len(set(values)) > 1:
            drift[name] = values
        metrics[name] = {
            "value": statistics.median_low(values),
            "unit": "bytes" if name.endswith("_bytes") else "count",
        }
    metrics["trace.overhead_s"] = {
        "value": sum(best_latencies(traced).values())
        - sum(best_latencies(untraced).values()),
        "unit": "s",
    }
    metrics["trace.unattributed_s"] = {
        "value": _median([
            p.timed_s - sum(r["self_s"].values())
            for p, r in zip(traced, layer_runs)
        ]),
        "unit": "s",
    }
    for layer in workload.layers:
        zero = [i for i, r in enumerate(layer_runs) if not r["spans"][layer]]
        if zero:
            failures.append(f"layer {layer} recorded no spans in traced "
                            f"pass(es) {zero}")
    return {"metrics": metrics, "failures": failures, "drift": drift}


def measure(workload: Any, inputs: Any, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """Set up, then repeat passes until the next one would end after
    ``seconds`` from the start of set-up.

    Traced runs alternate untraced and traced passes, starting
    untraced, and make at least one of each.  ``import repro`` is timed
    before every pass, so its samples spread over the run like the
    passes do.
    """
    from layers import LayerTracer
    from workloads import chain_pass, setup_chains, suite_pass

    deadline = time.perf_counter() + seconds
    chains: List[Any] = []
    failures: List[str] = []
    if workload.kind == "chain":
        chains, failures = setup_chains(workload, inputs)

    def one_pass(tracer: Optional[LayerTracer] = None) -> Any:
        if workload.kind == "chain":
            return chain_pass(workload, chains, tracer)
        return suite_pass(workload, inputs, tracer)

    tracer = LayerTracer() if trace else None
    import_s: List[Tuple[float, float]] = []
    untraced: List[Any] = []
    traced: List[Any] = []
    layer_runs: List[Dict[str, Any]] = []
    while True:
        use_tracer = trace and len(untraced) > len(traced)
        import_s.append(import_seconds())
        gc.collect()  # garbage of earlier passes is not this pass's cost
        start = time.perf_counter()
        if use_tracer:
            tracer.reset()
            tracer.install()
            try:
                p = one_pass(tracer)
            finally:
                tracer.uninstall()
            tracer.finish_pass()
            counts = dict(tracer.counts)
            if chains:
                counts["service.session_bytes"] = p.session_bytes
            layer_runs.append({"self_s": dict(tracer.self_s),
                               "counts": counts,
                               "spans": tracer.layer_spans()})
            traced.append(p)
        else:
            untraced.append(one_pass())
        took = time.perf_counter() - start
        enough = not trace or traced
        if enough and time.perf_counter() + took > deadline:
            break
    while len(import_s) < IMPORT_SAMPLES:
        import_s.append(import_seconds())
    return {"untraced": untraced, "traced": traced, "import_s": import_s,
            "layer_runs": layer_runs, "failures": failures,
            "setups_s": [(chain.setup_s, chain.setup_steady_s)
                         for chain in chains]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in PINNED_ENV:
        os.environ.pop(var, None)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, generate

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        inputs = generate(workload, args.seed, workdir)
        gen_s = time.perf_counter() - start
        run = measure(workload, inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = run["untraced"]
    everything = untraced + run["traced"]
    failures = list(run["failures"])  # bases that failed set-up
    failures += [f"{op.label}: {op.failure}"
                 for p in everything for op in p.ops if op.failure]
    failures += check_repeats(everything)
    failed = len(failures)
    # Every op of every pass, plus each chain's cold base serve.
    attempted = sum(len(p.ops) for p in everything) + (
        len(inputs.netlists) if workload.kind == "chain" else 0
    )
    e2e = end_to_end(untraced, run["import_s"], run["setups_s"])
    e2e["fail_frac"] = {"value": failed / attempted, "unit": "fraction"}
    layer = None
    if args.trace:
        layer = per_layer(workload, untraced, run["traced"],
                          run["layer_runs"])
        failures += layer["failures"]

    report = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "op_best_s": best_latencies(untraced),
        "pass_s": {"untraced": [p.timed_s for p in untraced],
                   "traced": [p.timed_s for p in run["traced"]]},
        "provenance": provenance(args.seed, inputs, gen_s),
        "end_to_end": e2e,
        "per_layer": layer["metrics"] if layer else None,
        "count_drift": layer["drift"] if layer else None,
        "failures": failures[:20],
    }
    metrics = layer["metrics"] if layer else {
        name: e2e[name] for name in END_TO_END_UNITS
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
