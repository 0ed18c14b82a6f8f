"""``python -m repro.bench`` — run a benchmark mode, write its payload,
and diff it against a baseline.

Every mode produces one schema-3 bench payload (:mod:`repro.obs.diff`;
``docs/observability.md``, "Bench payloads") and shares one tail: the
payload is written to ``--out`` (default ``BENCH_<kind>.json``), its
markdown view is printed, ``--compare BASELINE`` diffs it against a
stored payload of the same kind (exact on deterministic metrics and
fitted exponents, noise-aware on wall clocks and bytes),
``--fail-on-regress`` turns a gated regression into exit 1, and
``--report`` writes the self-contained HTML view.  The modes and their
kinds:

* default (``obs``) — partition every, or each named, suite circuit
  with observability on (:mod:`repro.bench.suite`);
* ``--scale-curve`` (``scale``) — sweep one circuit over a size ladder
  and fit complexity exponents (:mod:`repro.bench.scale_curve`,
  ``docs/scaling.md``);
* ``--eco-scenario`` (``eco``) — chained ECO deltas served warm and
  cold (:mod:`repro.bench.eco_scenario`, ``docs/eco.md``);
* ``--cache-scenario`` (``cache``) — one circuit served cold, then from
  the cache (:mod:`repro.bench.cache_scenario`).

The fifth kind, ``serving``, comes from ``repro-loadgen``
(:mod:`repro.loadgen`, ``docs/loadtest.md``).

Exit codes: 0 ok; 1 a check failed, a gated metric regressed under
``--fail-on-regress``, or the run failed; 2 bad invocation, an
unreadable baseline or one of another kind, or a baseline that shares
no metric with the run.

Examples
--------
::

    python -m repro.bench --scale 0.1                 # quick pass
    python -m repro.bench Test05 Prim1 --out BENCH_obs.json
    python -m repro.bench --algorithm rcut --scale 0.2
    python -m repro.bench --scale 0.2 --workers 4     # parallel circuits
    python -m repro.bench --list                      # known circuits
    python -m repro.bench --scale 0.2 \\
        --compare benchmarks/results/BENCH_baseline.json \\
        --fail-on-regress --report bench-report.html
    python -m repro.bench --scale-curve --curve-repeats 2 \\
        --compare benchmarks/results/BENCH_scale.json \\
        --fail-on-regress --report scale-report.html
"""

from __future__ import annotations

import argparse
import difflib
import sys
from typing import Any, Callable, Dict, Optional, Sequence

from ..errors import ReproError
from ..obs.diff import DiffThresholds, load_payload
from ..obs.render import publish
from ..parallel import resolve_parallel
from .specs import BENCHMARKS, spec_names
from .suite import run_observed_suite

#: Exit codes: 0 success, 1 check failed or regression gate tripped,
#: 2 bad invocation.
EXIT_OK = 0
EXIT_REGRESSED = 1
EXIT_USAGE = 2

Producer = Callable[[], Dict[str, Any]]


def _print_spec_list() -> None:
    print(f"{'name':>8}  {'modules':>8}  {'nets':>8}  paper best (IG-Match)")
    for spec in BENCHMARKS:
        row = spec.paper_igmatch
        best = (
            f"{row.nets_cut} cut @ {row.areas} (ratio {row.ratio_cut:.3g})"
            if row is not None
            else "—"
        )
        print(
            f"{spec.name:>8}  {spec.num_modules:>8}  "
            f"{spec.num_nets:>8}  {best}"
        )


def _check_names(names: Sequence[str]) -> None:
    """Raise :class:`ReproError` for the first unknown circuit name."""
    known = spec_names()
    lower = {name.lower(): name for name in known}
    for name in names:
        if name.lower() in lower:
            continue
        suggestions = difflib.get_close_matches(
            name.lower(), list(lower), n=3, cutoff=0.4
        )
        hint = (
            " — did you mean "
            + " or ".join(lower[s] for s in suggestions)
            + "?"
            if suggestions
            else ""
        )
        raise ReproError(
            f"unknown circuit {name!r}{hint} "
            f"(known: {', '.join(known)}; see --list)"
        )


def _one_circuit(args, flag: str) -> str:
    names = args.names or ["Test05"]
    if len(names) != 1:
        raise ReproError(f"{flag} takes exactly one circuit name")
    _check_names(names)
    return names[0]


def _suite(args) -> Producer:
    _check_names(args.names)
    return lambda: run_observed_suite(
        names=args.names or None,
        seed=args.seed,
        scale=args.scale,
        algorithm=args.algorithm,
        parallel=resolve_parallel(args.workers),
        memprof=args.memprof,
    )


def _scale_curve(args) -> Producer:
    from .scale_curve import run_scale_curve

    if args.names:
        raise ReproError(
            "--scale-curve sweeps one circuit; use --curve-circuit NAME "
            "instead of positional names"
        )
    _check_names([args.curve_circuit])
    try:
        scales = [float(s) for s in args.curve_scales.split(",") if s]
    except ValueError:
        raise ReproError(
            f"--curve-scales must be comma-separated floats "
            f"(got {args.curve_scales!r})"
        ) from None
    return lambda: run_scale_curve(
        circuit=args.curve_circuit,
        seed=args.seed,
        scales=scales,
        algorithms=[a for a in args.curve_algorithms.split(",") if a],
        repeats=args.curve_repeats,
    )


def _eco(args) -> Producer:
    from .eco_scenario import run_eco_scenario

    name = _one_circuit(args, "--eco-scenario")
    return lambda: run_eco_scenario(
        name,
        seed=args.seed,
        scale=args.scale,
        algorithm=args.algorithm,
        deltas=args.eco_deltas,
        delta_seed=args.eco_delta_seed,
        min_speedup=args.eco_min_speedup,
    )


def _cache(args) -> Producer:
    from .cache_scenario import run_cache_scenario

    name = _one_circuit(args, "--cache-scenario")
    return lambda: run_cache_scenario(
        name, seed=args.seed, scale=args.scale, algorithm=args.algorithm
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run a benchmark mode (by default the observed suite), "
        "write its bench payload, and optionally diff it against a "
        "stored baseline of the same kind.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help="circuits to run (default: the whole suite; see --list)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the known circuit specs and exit",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="size scale factor for generated circuits",
    )
    parser.add_argument(
        "--algorithm", default="ig-match",
        help="partitioner to profile (default ig-match)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run circuits in parallel on a pool of N worker processes "
        "(0 = auto-detect CPUs; default: $REPRO_WORKERS or 1).  Exact "
        "metrics are identical for any worker count",
    )
    parser.add_argument(
        "--memprof", action="store_true",
        help="attribute Python-heap memory to each phase: phases gain "
        "phase.mem_alloc_bytes/phase.mem_peak_bytes and circuits a "
        "memory snapshot (RSS + tracemalloc watermarks).  Memory "
        "metrics diff noise-aware and never trip --fail-on-regress",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="output JSON path (default BENCH_<kind>.json: BENCH_obs.json "
        "for the suite, BENCH_scale/eco/cache.json for the other "
        "modes)",
    )
    parser.add_argument(
        "--compare", metavar="BASELINE",
        help="diff the fresh run against a stored payload of the same "
        "kind and print the verdicts",
    )
    parser.add_argument(
        "--fail-on-regress", action="store_true",
        help="with --compare: exit nonzero when a gated metric (an exact "
        "one such as a counter, phase count, nets_cut or ratio_cut, or "
        "a fitted exponent) regressed; wall-clock and memory changes "
        "never trip the gate",
    )
    parser.add_argument(
        "--time-tolerance", type=float, default=0.25, metavar="REL",
        help="relative wall-clock change below which a time is "
        "'unchanged' (default 0.25)",
    )
    parser.add_argument(
        "--time-floor", type=float, default=0.02, metavar="SECONDS",
        help="absolute wall-clock change always treated as noise "
        "(default 0.02s)",
    )
    parser.add_argument(
        "--report", metavar="PATH",
        help="write the self-contained HTML view (metrics, checks, phase "
        "trees, convergence curves, fitted exponents, and the diff "
        "when --compare is given)",
    )
    parser.add_argument(
        "--cache-scenario", action="store_true",
        help="run the cached-vs-cold serving scenario instead of the "
        "suite: serve one circuit twice through repro.service and "
        "verify the warm request hit the cache and skipped every "
        "compute phase",
    )
    parser.add_argument(
        "--eco-scenario", action="store_true",
        help="run the incremental-partitioning (ECO) scenario instead "
        "of the suite: serve one circuit, chain random netlist deltas "
        "through the warm delta path and a cold recompute per edit, "
        "and gate on warm quality (no worse) and the speedup floor",
    )
    parser.add_argument(
        "--eco-deltas", type=int, default=5, metavar="N",
        help="with --eco-scenario: number of chained edits (default 5)",
    )
    parser.add_argument(
        "--eco-delta-seed", type=int, default=1, metavar="SEED",
        help="with --eco-scenario: RNG seed for the random edits "
        "(default 1)",
    )
    parser.add_argument(
        "--eco-min-speedup", type=float, default=5.0, metavar="X",
        help="with --eco-scenario: minimum warm-vs-cold speedup the "
        "gate accepts (default 5.0)",
    )
    parser.add_argument(
        "--scale-curve", action="store_true",
        help="sweep one circuit over a geometric size ladder instead of "
        "running the suite: fit log-log complexity exponents for wall "
        "time and peak heap per algorithm and (with "
        "--compare/--fail-on-regress) gate on exponent drift",
    )
    parser.add_argument(
        "--curve-circuit", default="Prim2", metavar="NAME",
        help="with --scale-curve: circuit spec to sweep (default Prim2)",
    )
    parser.add_argument(
        "--curve-scales", default="0.05,0.1,0.2,0.4", metavar="S,S,...",
        help="with --scale-curve: size ladder as comma-separated scale "
        "factors (default 0.05,0.1,0.2,0.4)",
    )
    parser.add_argument(
        "--curve-algorithms", default="ig-match,fm", metavar="ALG,...",
        help="with --scale-curve: algorithms to sweep "
        "(default ig-match,fm)",
    )
    parser.add_argument(
        "--curve-repeats", type=int, default=1, metavar="K",
        help="with --scale-curve: untraced timed runs per rung; keeps "
        "the minimum wall time (default 1)",
    )
    parser.add_argument(
        "--exponent-tolerance", type=float, default=0.2, metavar="TOL",
        help="with --compare: allowed complexity-exponent growth before "
        "the gate trips; widened automatically by the fits' standard "
        "errors (default 0.2)",
    )
    args = parser.parse_args(argv)

    if args.list:
        _print_spec_list()
        return EXIT_OK

    if args.cache_scenario:
        kind, mode = "cache", _cache
    elif args.eco_scenario:
        kind, mode = "eco", _eco
    elif args.scale_curve:
        kind, mode = "scale", _scale_curve
    else:
        kind, mode = "obs", _suite
    try:
        produce = mode(args)
        baseline = load_payload(args.compare, kind) if args.compare else None
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return publish(
            produce(),
            out=args.out or f"BENCH_{kind}.json",
            report=args.report,
            baseline=baseline,
            thresholds=DiffThresholds(
                rel_tol=args.time_tolerance, abs_floor_s=args.time_floor
            ),
            exponent_tol=args.exponent_tolerance,
            fail_on_regress=args.fail_on_regress,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGRESSED


if __name__ == "__main__":
    raise SystemExit(main())
