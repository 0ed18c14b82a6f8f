"""Zipf-ready corpora of generated netlists for load generation.

:func:`build_corpus` realises ``distinct`` base circuits from the
benchmark suite's synthetic specs, cycling through the smallest specs
first and bumping the generator seed each cycle, so every entry is a
genuinely different instance.  Entries carry their serialised
``repro-hypergraph-v1`` JSON body, built once rather than per request;
their order is the zipf rank order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..bench.specs import BENCHMARKS
from ..bench.suite import build_circuit
from ..errors import ReproError
from ..hypergraph import Hypergraph, to_json

__all__ = ["Corpus", "CorpusEntry", "build_corpus"]


@dataclass(frozen=True)
class CorpusEntry:
    """One submittable netlist with its provenance."""

    name: str
    netlist: Dict[str, Any]  # repro-hypergraph-v1 JSON document
    num_modules: int
    num_nets: int


class Corpus:
    """An ordered list of :class:`CorpusEntry` (order defines zipf rank)."""

    def __init__(self, entries: Sequence[CorpusEntry]):
        if not entries:
            raise ReproError("corpus must contain at least one entry")
        self.entries: List[CorpusEntry] = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> CorpusEntry:
        return self.entries[index]

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for ``BENCH_serving.json``."""
        return {
            "entries": len(self.entries),
            "names": [e.name for e in self.entries],
            "modules": sum(e.num_modules for e in self.entries),
            "nets": sum(e.num_nets for e in self.entries),
        }


def _build_base(
    spec_name: str, gen_seed: int, scale: float
) -> "tuple[Hypergraph, int]":
    """Generate one base circuit, hopping the seed past the rare
    ``(spec, seed, scale)`` combinations whose random generation fails
    connectivity repair.  The hop stride keeps retried seeds clear of
    the per-cycle seeds other entries use.  Deterministic: the same
    inputs always settle on the same seed."""
    last: Optional[ReproError] = None
    for attempt in range(8):
        candidate = gen_seed + attempt * 7919
        try:
            return build_circuit(
                spec_name, seed=candidate, scale=scale
            ), candidate
        except ReproError as exc:
            last = exc
    raise ReproError(
        f"cannot generate {spec_name!r} at scale {scale} "
        f"(8 seeds tried from {gen_seed}): {last}"
    )


def build_corpus(
    distinct: int = 4,
    seed: int = 0,
    scale: float = 0.2,
    names: Optional[Sequence[str]] = None,
) -> Corpus:
    """Build a corpus of ``distinct`` base circuits.

    Bases cycle through the benchmark specs smallest-first (or the
    given ``names``), bumping the generator seed every full cycle so
    each entry is a distinct instance.
    """
    if distinct < 1:
        raise ReproError(f"need at least one distinct netlist, got {distinct}")
    if names is None:
        names = [
            spec.name
            for spec in sorted(BENCHMARKS, key=lambda s: s.num_modules)
        ]
    if not names:
        raise ReproError("no circuit names to build the corpus from")

    entries: List[CorpusEntry] = []
    for i in range(distinct):
        spec_name = names[i % len(names)]
        h, gen_seed = _build_base(
            spec_name, seed + (i // len(names)), scale
        )
        entries.append(
            CorpusEntry(
                name=f"{spec_name}@s{gen_seed}",
                netlist=to_json(h),
                num_modules=h.num_modules,
                num_nets=h.num_nets,
            )
        )
    return Corpus(entries)
