"""``repro-loadgen`` — drive a workload at a server and gate on SLOs.

Example (the gated serving benchmark, against a locally running
``repro-serve``)::

    repro-loadgen --duration 10 --concurrency 8 \\
        --mix igmatch=0.5,fm=0.3,eig1=0.2 --zipf 1.1 \\
        --slo p99=2.0,error_rate=0.01

Exit codes: 0 — run completed, every cross-check passed and no SLO
objective hard-failed; 1 — an SLO objective failed or the client/server
cross-check found unaccounted requests; 2 — usage error or the server
could not be reached at all.

Writes the ``serving`` bench payload to ``BENCH_serving.json``
(validated before writing, see :mod:`repro.loadgen.report`), prints its
markdown view and optionally writes its HTML view (``--html``) — the
same write and report path as ``python -m repro.bench``
(:func:`repro.obs.render.publish`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..errors import ReproError
from ..obs.render import publish
from .scenario import DEFAULT_MIX, run_serving_scenario
from .slo import parse_slo

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Closed-loop load generation against repro-serve: "
        "a deterministic schedule, SLO verdicts, and a client/server "
        "metrics cross-check.",
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8377",
        help="base URL of the server under test "
        "(default http://127.0.0.1:8377)",
    )
    parser.add_argument(
        "--self-serve", action="store_true",
        help="ignore --url and boot a private in-process server on an "
        "ephemeral port for the duration of the run",
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="how long to offer load (default 10)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=8, metavar="N",
        help="closed-loop worker count (default 8)",
    )
    parser.add_argument(
        "--mix", default=DEFAULT_MIX, metavar="ALG=W,...",
        help=f"algorithm traffic mix (default {DEFAULT_MIX})",
    )
    parser.add_argument(
        "--zipf", type=float, default=1.1, metavar="S",
        help="zipf exponent for corpus repetition (default 1.1; "
        "0 = uniform)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload/corpus schedule seed (default 0)",
    )
    parser.add_argument(
        "--slo", default=None, metavar="OBJ=TARGET,...",
        help="SLO objectives, e.g. p99=2.0,error_rate=0.01,rps=5 "
        "(p50/p95/p99 in seconds; no SLO asserted when omitted)",
    )
    parser.add_argument(
        "--distinct", type=int, default=3, metavar="N",
        help="distinct base netlists in the corpus (default 3)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.15,
        help="corpus circuit size scale factor (default 0.15)",
    )
    parser.add_argument(
        "--output", "-o", default="BENCH_serving.json", metavar="PATH",
        help="where to write the benchmark payload "
        "(default BENCH_serving.json; '-' = stdout only)",
    )
    parser.add_argument(
        "--html", default=None, metavar="PATH",
        help="also render the self-contained HTML report here",
    )
    parser.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress the markdown summary on stdout",
    )
    args = parser.parse_args(argv)

    try:
        slo = parse_slo(args.slo) if args.slo else None
    except ReproError as exc:
        print(f"repro-loadgen: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        payload, _result = run_serving_scenario(
            base_url=None if args.self_serve else args.url,
            duration_s=args.duration,
            concurrency=args.concurrency,
            mix=args.mix,
            zipf_s=args.zipf,
            seed=args.seed,
            slo=slo,
            distinct=args.distinct,
            scale=args.scale,
        )
    except ReproError as exc:
        print(f"repro-loadgen: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return publish(
            payload,
            out=None if args.output in ("", "-") else args.output,
            report=args.html,
            quiet=args.quiet,
        )
    except OSError as exc:
        print(f"repro-loadgen: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
