"""Command-line interface: partition a netlist file.

Examples
--------
Partition a NET-format netlist with IG-Match and print the result::

    repro-partition circuit.net
    python -m repro circuit.net --algorithm rcut --restarts 10

Generate a synthetic benchmark, save it, then partition it::

    python -m repro --generate Test05 --save test05.net
    python -m repro test05.net --algorithm ig-vote
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__, obs
from .bench import build_circuit, spec_names
from .errors import ReproError
from .hypergraph import Hypergraph, describe, load_json, load_net, save_net
from .partitioning import PartitionResult
from .parallel import ParallelConfig, resolve_parallel
from .service.engine import ALGORITHMS

__all__ = ["main"]

_ALGORITHMS = ALGORITHMS + ("spectral-kway",)


_SUPPORTED_SUFFIXES = (".net", ".json", ".hgr", ".v")


def _load(path: str) -> Hypergraph:
    file = Path(path)
    suffix = file.suffix.lower()
    if suffix == ".json":
        return load_json(file)
    if suffix == ".hgr":
        from .hypergraph import load_hgr

        return load_hgr(file)
    if suffix == ".v":
        from .hypergraph import load_verilog

        return load_verilog(file)
    if suffix == ".net":
        return load_net(file)
    raise ReproError(
        f"unsupported netlist extension {file.suffix!r} for {path}; "
        f"supported extensions: {', '.join(_SUPPORTED_SUFFIXES)}"
    )


def _request(
    algorithm: str, seed: int, restarts: int, stride: int, starts: int = 1
):
    """Build the frozen service request for the given CLI knobs."""
    from .service import PartitionRequest

    return PartitionRequest(
        algorithm=algorithm,
        seed=seed,
        restarts=restarts,
        split_stride=stride,
        starts=starts,
    )


def _run_algorithm(
    h: Hypergraph,
    algorithm: str,
    seed: int,
    restarts: int,
    stride: int,
    starts: int = 1,
    parallel: Optional[ParallelConfig] = None,
) -> PartitionResult:
    """Direct (uncached) dispatch; the service engine owns the mapping
    from request to algorithm, so CLI and HTTP runs share one code path."""
    from .service import run_partitioner

    return run_partitioner(
        h,
        _request(algorithm, seed, restarts, stride, starts),
        parallel=parallel,
    )


def _run_multiway(h: Hypergraph, args) -> int:
    """Handle k-way requests (--blocks > 2 or -a spectral-kway)."""
    from .partitioning import (
        SpectralKWayConfig,
        recursive_partition,
        scaled_cost,
        spectral_kway,
    )

    if args.algorithm == "spectral-kway":
        result = spectral_kway(
            h, args.blocks, SpectralKWayConfig(seed=args.seed)
        )
        label = "spectral-kway"
    else:

        def bipartitioner(sub):
            return _run_algorithm(
                sub, args.algorithm, args.seed, args.restarts,
                args.stride, args.starts,
                resolve_parallel(args.workers),
            )

        result = recursive_partition(
            h, args.blocks, bipartitioner=bipartitioner
        )
        label = f"recursive {args.algorithm}"

    cost = scaled_cost(h, result.block_of, result.num_blocks)
    payload = {
        "algorithm": label,
        "blocks": result.num_blocks,
        "block_sizes": result.block_sizes,
        "nets_cut": result.nets_cut,
        "scaled_cost": cost,
        "seconds": round(result.elapsed_seconds, 3),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{label}: {result.num_blocks} blocks "
            f"{result.block_sizes}, {result.nets_cut} nets cut, "
            f"scaled cost {cost:.4e} "
            f"({result.elapsed_seconds:.2f}s)"
        )
    if args.sides_out:
        lines = [
            f"{h.module_name(v)} {result.block_of[v]}"
            for v in range(h.num_modules)
        ]
        Path(args.sides_out).write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        print(f"wrote blocks to {args.sides_out}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-partition",
        description="Ratio-cut netlist partitioning "
        "(IG-Match and baselines).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "netlist", nargs="?",
        help="input netlist (.net text format, .hgr hMETIS, or .json)",
    )
    parser.add_argument(
        "--blocks", "-k", type=int, default=2,
        help="number of blocks (k > 2 uses recursive bipartition with "
        "the chosen algorithm, or direct spectral k-way with "
        "-a spectral-kway)",
    )
    parser.add_argument(
        "--algorithm", "-a", choices=_ALGORITHMS, default="ig-match",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--restarts", type=int, default=10, help="RCut random restarts"
    )
    parser.add_argument(
        "--stride", type=int, default=1,
        help="IG-Match split stride (1 = all splits)",
    )
    parser.add_argument(
        "--starts", type=int, default=1,
        help="FM multi-start runs (best cut wins; default 1)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker pool size for parallel fan-outs (RCut restarts, "
        "FM multi-starts): 1 runs inline, 2 or more on a process pool, "
        "0 = auto-detect CPUs; default: $REPRO_WORKERS or 1.  Results "
        "are identical for any worker count",
    )
    parser.add_argument(
        "--generate", metavar="BENCHMARK", choices=spec_names(),
        help="generate a synthetic benchmark instead of reading a file",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="scale factor for --generate",
    )
    parser.add_argument(
        "--save", metavar="PATH",
        help="write the (generated or loaded) netlist to a .net file",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print netlist statistics before partitioning",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the result as JSON",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print a full partition report (cut nets, boundary "
        "modules, cut histogram)",
    )
    parser.add_argument(
        "--replicate", type=float, metavar="FRACTION", default=None,
        help="after partitioning, greedily replicate up to FRACTION of "
        "the modules to reduce the cut (bipartition only)",
    )
    parser.add_argument(
        "--sides-out", metavar="PATH",
        help="write one '<module-name> <side>' line per module",
    )
    parser.add_argument(
        "--delta", metavar="FILE",
        help="apply a netlist delta (repro-netlist-delta-v1 JSON) to "
        "the base netlist and partition the edited netlist warm: the "
        "base is partitioned cold, then the delta path rebuilds the "
        "intersection graph cold and re-sweeps a window around the "
        "base answer's best split (ig-match), or refines from the "
        "base answer's sides (fm)",
    )
    parser.add_argument(
        "--base", metavar="FILE",
        help="with --delta: the base netlist file the delta applies to "
        "(defaults to the positional netlist)",
    )
    parser.add_argument(
        "--fingerprint", action="store_true",
        help="print the netlist's canonical (relabeling-invariant) "
        "content fingerprint and exit without partitioning; with "
        "--json, also print the exact (label-sensitive) hash that "
        "keys the result cache",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache", action="store_true",
        help="serve the request through the content-addressed result "
        "cache (in-memory + disk under $REPRO_CACHE_DIR or "
        "~/.cache/repro); repeated identical requests skip the "
        "partitioner entirely",
    )
    cache_group.add_argument(
        "--no-cache", action="store_true",
        help="explicitly bypass the result cache (the default)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="override the disk cache directory for --cache",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect per-phase timings/counters and print the phase "
        "tree to stderr after the run",
    )
    parser.add_argument(
        "--profile-mem", action="store_true",
        help="also attribute Python-heap memory to each phase "
        "(tracemalloc): the --profile tree gains Δ net-alloc / ^ peak "
        "columns, span events in --trace-json carry mem_alloc_bytes / "
        "mem_peak_bytes, and a final mem.profile event records the RSS "
        "high-water mark.  Implies --profile when no trace output is "
        "requested",
    )
    parser.add_argument(
        "--trace-json", metavar="PATH",
        help="write structured JSON-lines trace events (spans, points, "
        "counters) to PATH",
    )
    parser.add_argument(
        "--trace-html", metavar="PATH",
        help="render the run's trace as a self-contained HTML report "
        "(phase-tree flame view, convergence curves, counters)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.profile_mem and not (args.trace_json or args.trace_html):
        # Memory attribution with no trace output means the user wants
        # the annotated phase tree.
        args.profile = True
    profiling = bool(args.profile or args.trace_json or args.trace_html)
    html_sink = None
    sampler = None
    if profiling:
        sink = None
        if args.trace_json:
            try:
                sink = obs.JsonLinesSink(args.trace_json)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        obs.enable(sink=sink)
        if args.profile_mem:
            obs.enable_memprof()
            sampler = obs.RssSampler()
            sampler.start()
        if args.trace_html:
            html_sink = obs.MemorySink()
            obs.STATE.sinks.append(html_sink)
        obs.emit(
            "cli.run",
            algorithm=args.algorithm,
            blocks=args.blocks,
            seed=args.seed,
        )
    try:
        return _execute(args, parser)
    finally:
        if profiling:
            if sampler is not None:
                sampler.stop()
                obs.emit("mem.profile", **obs.memory_snapshot(),
                         rss_high_water_bytes=sampler.high_water_bytes)
            if args.profile:
                print(obs.phase_report(), file=sys.stderr)
                if args.profile_mem and sampler is not None:
                    print(
                        "rss high water: "
                        + obs.human_bytes(sampler.high_water_bytes),
                        file=sys.stderr,
                    )
            obs.disable()
            if args.trace_json:
                print(
                    f"wrote trace events to {args.trace_json}",
                    file=sys.stderr,
                )
            if html_sink is not None:
                try:
                    Path(args.trace_html).write_text(
                        obs.render_trace_html(
                            html_sink.events,
                            title=f"repro trace — {args.algorithm}",
                        ),
                        encoding="utf-8",
                    )
                except OSError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                else:
                    print(
                        f"wrote trace report to {args.trace_html}",
                        file=sys.stderr,
                    )


def _run_delta_path(h: Hypergraph, args):
    """Serve the base, then serve ``--delta`` against its session,
    through the same :class:`~repro.service.PartitionEngine` calls as
    ``POST /partition`` and ``POST /partition/delta``.

    Returns ``(edited_hypergraph, result)``; the caller's normal
    output paths (--json/--report/--sides-out) then apply to the edited
    netlist's result.
    """
    from .delta import load_delta
    from .service import PartitionEngine

    request = _request(
        args.algorithm, args.seed, args.restarts, args.stride, args.starts
    )
    delta = load_delta(args.delta)
    engine = PartitionEngine(parallel=resolve_parallel(args.workers))
    base = engine.partition(h, request)
    served = engine.partition_delta(base.fingerprint, delta, request)
    edited = served.result.partition.hypergraph
    print(
        f"base {h.num_modules}m/{h.num_nets}n ratio "
        f"{base.result.ratio_cut:.6g} -> delta "
        f"{edited.num_modules}m/{edited.num_nets}n ({served.source})",
        file=sys.stderr,
    )
    return edited, served.result


def _execute(args, parser: argparse.ArgumentParser) -> int:
    try:
        if args.base and not args.delta:
            parser.error("--base requires --delta")
            return 2
        if args.blocks < 2:
            parser.error(f"--blocks must be >= 2, got {args.blocks}")
            return 2
        if args.generate:
            h = build_circuit(args.generate, seed=args.seed, scale=args.scale)
        elif args.delta and args.base:
            h = _load(args.base)
        elif args.netlist:
            h = _load(args.netlist)
        else:
            parser.error("give a netlist file or --generate BENCHMARK")
            return 2

        if args.save:
            save_net(h, args.save)
            print(f"wrote {h.num_nets} nets to {args.save}", file=sys.stderr)

        if args.stats:
            print(describe(h))
            print()

        if args.fingerprint:
            from .service import canonical_fingerprint, exact_fingerprint

            if args.json:
                print(
                    json.dumps(
                        {
                            "canonical": canonical_fingerprint(h),
                            "exact": exact_fingerprint(h),
                        },
                        indent=2,
                    )
                )
            else:
                print(canonical_fingerprint(h))
            return 0

        if args.blocks > 2 or args.algorithm == "spectral-kway":
            if args.delta:
                print(
                    "error: --delta supports bipartitioning "
                    "algorithms only",
                    file=sys.stderr,
                )
                return 2
            return _run_multiway(h, args)

        if args.delta:
            if args.cache:
                print(
                    "error: --delta bypasses the result cache "
                    "(drop --cache)",
                    file=sys.stderr,
                )
                return 2
            h, result = _run_delta_path(h, args)
        elif args.cache:
            from .service import (
                PartitionEngine,
                ResultCache,
            )

            engine = PartitionEngine(
                cache=ResultCache(disk_dir=args.cache_dir),
                parallel=resolve_parallel(args.workers),
            )
            served = engine.partition(
                h,
                _request(
                    args.algorithm, args.seed, args.restarts,
                    args.stride, args.starts,
                ),
            )
            print(
                f"cache {'hit (' + served.source + ')' if served.cached else 'miss'} "
                f"{served.fingerprint[:12]} trace {served.trace_id}",
                file=sys.stderr,
            )
            result = served.result
        else:
            result = _run_algorithm(
                h, args.algorithm, args.seed, args.restarts, args.stride,
                args.starts, resolve_parallel(args.workers),
            )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.replicate is not None:
        from .partitioning import replicate_for_cut

        try:
            replication = replicate_for_cut(
                result, max_fraction=args.replicate
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(replication)

    if args.json:
        payload = result.row()
        payload["details"] = {
            k: v for k, v in result.details.items()
            if isinstance(v, (int, float, str, bool))
        }
        print(json.dumps(payload, indent=2))
    elif args.report:
        from .partitioning import partition_report

        print(partition_report(result))
    else:
        print(result)

    if args.sides_out:
        lines = [
            f"{h.module_name(v)} {result.partition.side(v)}"
            for v in range(h.num_modules)
        ]
        Path(args.sides_out).write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
        print(f"wrote sides to {args.sides_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
