"""The deterministic closed-loop workload: what to send.

A :class:`Workload` turns ``(seed, mix, corpus size, zipf exponent)``
into an infinite deterministic sequence of :class:`RequestSpec`\\ s.
Request *i* draws its algorithm and corpus entry from its own RNG
seeded by :func:`repro.parallel.spawn_seeds` — child seed *i* depends
only on ``(seed, i)``, so the schedule is identical across runs,
platforms, and thread interleavings, and extending a run never
perturbs the prefix already sent.  The client's ``concurrency``
workers each send the next request as soon as their previous one
completes, so offered load tracks service capacity.

Corpus draws are **zipf-repeated**: entry ranks are weighted
``1/(rank+1)**s``, so a handful of hot netlists dominate (cache-hit
traffic) while the tail stays cold.
"""

from __future__ import annotations

import math
import random
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List

from ..errors import ReproError
from ..parallel import spawn_seeds
from ..service.engine import ALGORITHMS

__all__ = [
    "ALGORITHM_ALIASES",
    "RequestSpec",
    "Workload",
    "parse_mix",
    "zipf_weights",
]

#: CLI-friendly spellings of the served algorithm names (the canonical
#: names contain dashes, which read poorly inside ``a=w,b=w`` mixes).
ALGORITHM_ALIASES: Dict[str, str] = {
    **{name: name for name in ALGORITHMS},
    "igmatch": "ig-match",
    "igvote": "ig-vote",
    "ig_match": "ig-match",
    "ig_vote": "ig-vote",
}


def parse_mix(text: str) -> Dict[str, float]:
    """Parse ``"igmatch=0.5,fm=0.3,eig1=0.2"`` into normalised weights.

    Weights are normalised to sum to 1; they need not arrive that way.
    Unknown algorithms, repeated names, and non-positive totals are
    :class:`ReproError`\\ s — a typo'd mix must not silently skew a
    benchmark.
    """
    if not text or not text.strip():
        raise ReproError("empty algorithm mix")
    weights: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, raw = part.partition("=")
        name = name.strip().lower()
        canonical = ALGORITHM_ALIASES.get(name)
        if canonical is None:
            raise ReproError(
                f"unknown algorithm {name!r} in mix "
                f"(known: {', '.join(sorted(set(ALGORITHM_ALIASES)))})"
            )
        if not eq:
            weight = 1.0
        else:
            try:
                weight = float(raw)
            except ValueError:
                raise ReproError(
                    f"bad weight {raw!r} for {name!r} in mix"
                ) from None
        if weight < 0 or not math.isfinite(weight):
            raise ReproError(
                f"weight for {name!r} must be finite and >= 0, "
                f"got {weight!r}"
            )
        if canonical in weights:
            raise ReproError(f"algorithm {canonical!r} repeated in mix")
        weights[canonical] = weight
    total = sum(weights.values())
    if total <= 0:
        raise ReproError("algorithm mix weights sum to zero")
    return {name: weight / total for name, weight in weights.items()}


def zipf_weights(count: int, s: float) -> List[float]:
    """Normalised zipf rank weights: ``w[r] ∝ 1/(r+1)**s``.

    ``s=0`` is uniform; larger ``s`` concentrates traffic on the first
    ranks.  ``count`` must be >= 1.
    """
    if count < 1:
        raise ReproError(f"need at least one rank, got {count}")
    if s < 0 or not math.isfinite(s):
        raise ReproError(f"zipf exponent must be finite and >= 0, got {s}")
    raw = [(rank + 1) ** -s for rank in range(count)]
    total = sum(raw)
    return [w / total for w in raw]


@dataclass(frozen=True)
class RequestSpec:
    """One scheduled request: what to ask for."""

    index: int
    algorithm: str
    entry_index: int
    seed: int  # the partitioner seed carried in the request body


class Workload:
    """A deterministic request schedule over a corpus.

    ``spec(i)`` is a pure function of ``(seed, i)`` (plus the frozen
    mix/zipf/corpus-size configuration): the request's algorithm and
    corpus entry are drawn from an RNG seeded with the *i*-th
    :func:`repro.parallel.spawn_seeds` child.  The partition ``seed``
    in the request body is fixed per workload (``request_seed``) —
    repeats of the same corpus entry must produce the same cache
    fingerprint, or a "repeated" workload would never hit the cache.
    """

    def __init__(
        self,
        mix: Dict[str, float],
        corpus_size: int,
        zipf_s: float = 1.1,
        seed: int = 0,
        request_seed: int = 0,
    ):
        if not mix:
            raise ReproError("workload needs a non-empty algorithm mix")
        unknown = sorted(set(mix) - set(ALGORITHMS))
        if unknown:
            raise ReproError(
                f"unknown algorithm(s) in mix: {', '.join(unknown)}"
            )
        if corpus_size < 1:
            raise ReproError("workload needs a non-empty corpus")
        self.mix = dict(mix)
        self.corpus_size = int(corpus_size)
        self.zipf_s = float(zipf_s)
        self.seed = int(seed)
        self.request_seed = int(request_seed)
        self._algorithms = sorted(self.mix)
        self._alg_cumulative = _cumulative(
            [self.mix[name] for name in self._algorithms]
        )
        self._entry_cumulative = _cumulative(
            zipf_weights(self.corpus_size, self.zipf_s)
        )
        self._seed_lock = threading.Lock()
        self._seeds: List[int] = []

    # ------------------------------------------------------------------
    def _seed_for(self, index: int) -> int:
        """The *i*-th spawned child seed, cached with geometric growth
        (``spawn_seeds`` is prefix-stable, so regrowing is consistent)."""
        with self._seed_lock:
            if index >= len(self._seeds):
                count = max(64, index + 1, 2 * len(self._seeds))
                self._seeds = spawn_seeds(self.seed, count)
            return self._seeds[index]

    def spec(self, index: int) -> RequestSpec:
        """The deterministic request spec for schedule position ``index``."""
        if index < 0:
            raise ReproError(f"request index must be >= 0, got {index}")
        rng = random.Random(self._seed_for(index))
        algorithm = self._algorithms[
            bisect_left(self._alg_cumulative, rng.random())
        ]
        entry = bisect_left(self._entry_cumulative, rng.random())
        return RequestSpec(
            index=index,
            algorithm=algorithm,
            entry_index=min(entry, self.corpus_size - 1),
            seed=self.request_seed,
        )

    def describe(self) -> Dict[str, object]:
        """JSON-safe configuration record for ``BENCH_serving.json``."""
        return {
            "mix": {k: round(v, 9) for k, v in sorted(self.mix.items())},
            "corpus_size": self.corpus_size,
            "zipf_s": self.zipf_s,
            "seed": self.seed,
            "request_seed": self.request_seed,
        }


def _cumulative(weights: List[float]) -> List[float]:
    out: List[float] = []
    total = 0.0
    for w in weights:
        total += w
        out.append(total)
    out[-1] = 1.0  # guard the last bisect against float undershoot
    return out
