"""Digests of the answers the partitioners serve, for byte-identity checks.

Run from the repository root::

    PYTHONPATH=src python tests/answer_digests.py          # print
    PYTHONPATH=src python tests/answer_digests.py --write  # regenerate

``tests/test_answer_digests.py`` compares the printed lines with the
checked-in table ``tests/data/answer_digests.txt``, so a change that
moves an answer fails tier-1.  A change that moves answers on purpose
regenerates the table with ``--write`` and says why.  Each line is a
SHA-256 digest (first 16 hex digits) of
:func:`repro.service.canonical_result_bytes`:

* ``suite``: every algorithm in ``ALGORITHMS`` on
  ``build_suite(seed=0, scale=0.1)``;
* ``spectral``: IG-Match, IG-Vote and EIG1 on the same circuits at
  scale 0.4;
* ``fm``: FM on the same circuits at scale 0.4, the scale of the
  benchmark's ``fm-suite`` (RCut, which runs the same pass, stays at
  scale 0.1: it takes about 7 s at 0.4);
* ``chain``: a base serve and four ``partition_delta`` edits per
  circuit at scale 0.1, for ``ig-match`` and ``fm``, with and without
  module churn, each digest taken over the bytes plus the served
  ``source``;
* ``netmodel``: EIG1 under every net model the other sections leave
  out (``NET_MODELS``), and ``spectral_kway(h, 4)``'s ``block_of`` (its
  JSON digested), on the circuits at scale 0.1, so every net-model
  graph and the Hall placement's Laplacian are pinned.

The ``group`` lines digest each section and ``all`` the whole run.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.bench.suite import build_suite
from repro.delta import random_delta
from repro.partitioning import EIG1Config, eig1, spectral_kway
from repro.service.engine import (
    ALGORITHMS,
    PartitionEngine,
    PartitionRequest,
    canonical_result_bytes,
    run_partitioner,
)

SUITE_SCALE = 0.1
SPECTRAL_SCALE = 0.4
SPECTRAL_ALGORITHMS = ("ig-match", "ig-vote", "eig1")
FM_SCALE = 0.4
CHAIN_ALGORITHMS = ("ig-match", "fm")
CHAIN_DELTAS = 4
#: EIG1's default ``clique`` model is already in the other sections.
NET_MODELS = ("unit-clique", "star", "path", "cycle")
KWAY_BLOCKS = 4

#: The checked-in table that ``tests/test_answer_digests.py`` compares.
TABLE = Path(__file__).parent / "data" / "answer_digests.txt"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _emit(lines: List[str], label: str, data: bytes) -> None:
    lines.append(f"{label} {_digest(data)}")


def suite_lines(scale: float, algorithms) -> List[str]:
    """One digest per algorithm and circuit, cold ``run_partitioner``."""
    lines: List[str] = []
    for name, h in build_suite(seed=0, scale=scale).items():
        for algorithm in algorithms:
            result = run_partitioner(h, PartitionRequest(algorithm=algorithm))
            _emit(
                lines,
                f"x{scale} {algorithm} {name}",
                canonical_result_bytes(result),
            )
    return lines


def chain_lines() -> List[str]:
    """One digest per serve of each delta chain (bytes plus source)."""
    lines: List[str] = []
    circuits = build_suite(seed=0, scale=SUITE_SCALE)
    for index, (name, base) in enumerate(circuits.items()):
        for algorithm in CHAIN_ALGORITHMS:
            for churn in (False, True):
                engine = PartitionEngine()
                request = PartitionRequest(algorithm=algorithm)
                rng = random.Random(index)
                h = base
                served = engine.partition(h, request)
                label = f"chain {algorithm} churn={int(churn)} {name}"
                for step in range(CHAIN_DELTAS + 1):
                    if step:
                        delta = random_delta(h, rng, module_churn=churn)
                        served = engine.partition_delta(
                            served.fingerprint, delta, request
                        )
                        h = delta.apply(h)
                    _emit(
                        lines,
                        f"{label} #{step} {served.source}",
                        canonical_result_bytes(served.result)
                        + served.source.encode("utf-8"),
                    )
    return lines


def netmodel_lines() -> List[str]:
    """One digest per net model and circuit for EIG1, and one of the
    4-way spectral blocks (clique graph, Hall placement)."""
    lines: List[str] = []
    for name, h in build_suite(seed=0, scale=SUITE_SCALE).items():
        for model in NET_MODELS:
            result = eig1(h, EIG1Config(net_model=model))
            _emit(
                lines,
                f"x{SUITE_SCALE} eig1 {model} {name}",
                canonical_result_bytes(result),
            )
        blocks = spectral_kway(h, KWAY_BLOCKS).block_of
        _emit(
            lines,
            f"x{SUITE_SCALE} kway{KWAY_BLOCKS} {name}",
            json.dumps(blocks).encode("utf-8"),
        )
    return lines


def digest_lines() -> List[str]:
    """Every digest line, then one ``group`` line per section and the
    ``all`` line over the whole run."""
    groups = [
        ("suite", suite_lines(SUITE_SCALE, ALGORITHMS)),
        ("spectral", suite_lines(SPECTRAL_SCALE, SPECTRAL_ALGORITHMS)),
        ("chain", chain_lines()),
        ("netmodel", netmodel_lines()),
        ("fm", suite_lines(FM_SCALE, ("fm",))),
    ]
    out: List[str] = []
    summary: List[str] = []
    everything = []
    for label, lines in groups:
        joined = "\n".join(lines).encode("utf-8")
        everything.append(joined)
        out.extend(lines)
        summary.append(f"group {label} ({len(lines)}) {_digest(joined)}")
    total = _digest(b"\n".join(everything))
    return out + summary + [f"all {total}"]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if args not in ([], ["--write"]):
        print("usage: answer_digests.py [--write]", file=sys.stderr)
        return 2
    text = "\n".join(digest_lines()) + "\n"
    if args:
        TABLE.write_text(text)
        print(f"wrote {TABLE}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
