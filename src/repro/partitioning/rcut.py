"""RCut: ratio-cut iterative partitioning after Wei & Cheng.

A reimplementation of the RCut1.0 strategy the paper benchmarks against
([32]; the binary itself is not available).  Wei–Cheng adapt the
Fiduccia–Mattheyses machinery to the ratio-cut metric with two move
phases and random-restart stabilisation:

* **shifting** — FM-style passes with *no* balance constraint: cells move
  by best cut gain, and the pass keeps the prefix with the best *ratio
  cut* (the denominator term is what lets the partition drift toward its
  natural sizes);
* **group swapping** — passes restricted to alternate directions, so
  groups of cells exchange sides even when individual moves look neutral;
* **random restarts** — the whole optimisation is run from ``restarts``
  random initial partitions and the best result returned (the paper
  compares against the best of 10 RCut1.0 runs).

The initial partition seeds each run; a run iterates shifting and
swapping passes to convergence.

Restarts are independent, so they fan out through
:mod:`repro.parallel`: each restart gets its own seed spawned up front
from ``config.seed`` (never drawn from a shared stream, so adding a
restart leaves every earlier start unchanged), and the best-of
reduction happens in restart order — results are bit-identical inline
and on a process pool of any size.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..obs import span
from ..parallel import ParallelConfig, pstarmap, spawn_seeds
from .fm import FMEngine, random_balanced_sides
from .metrics import ratio_cut_cost
from .partition import Partition, PartitionResult

__all__ = ["RCutConfig", "rcut"]


@dataclass(frozen=True)
class RCutConfig:
    """Options for :func:`rcut`.

    ``restarts`` random starting partitions are optimised independently
    (Wei–Cheng report best-of-10).  ``max_rounds`` bounds the
    shift/swap rounds per restart.  ``parallel`` fans the restarts out
    over a worker pool (``None`` resolves from the ``REPRO_WORKERS``
    environment); the result never depends on the worker count.
    """

    restarts: int = 10
    max_rounds: int = 12
    seed: int = 0
    min_side: int = 1
    parallel: Optional[ParallelConfig] = None


def _ratio(engine: FMEngine) -> float:
    return ratio_cut_cost(
        engine.cut, engine.side_count[0], engine.side_count[1]
    )


def _run_single(
    h: Hypergraph, sides: List[int], config: RCutConfig
) -> Tuple[List[int], float, int]:
    """Optimise one starting partition; returns (sides, ratio, rounds)."""
    engine = FMEngine(h, sides)
    min_side = max(1, config.min_side)

    def feasible_shift(side: int, area: float) -> bool:
        return engine.side_count[side] > min_side

    rounds = 0
    best_ratio = _ratio(engine)
    for _ in range(config.max_rounds):
        rounds += 1
        improved = False

        # Shifting: unconstrained best-gain moves, best-ratio prefix.
        engine.run_pass(feasible_shift, objective="ratio")
        ratio = _ratio(engine)
        if ratio < best_ratio - 1e-15:
            best_ratio = ratio
            improved = True

        # Group swapping: two half-passes, the first moving cells off
        # side 0 only and the second off side 1 only, so groups of
        # cells exchange sides.
        direction = [0]

        def feasible_swap(side: int, area: float) -> bool:
            return side == direction[0] and engine.side_count[side] > min_side

        for phase in (0, 1):
            direction[0] = phase
            engine.run_pass(feasible_swap, objective="ratio")
        ratio = _ratio(engine)
        if ratio < best_ratio - 1e-15:
            best_ratio = ratio
            improved = True

        if not improved:
            break
    return list(engine.sides), best_ratio, rounds


def _restart_task(
    h: Hypergraph, config: RCutConfig, restart_seed: int
) -> Tuple[List[int], float, int]:
    """One restart: its own RNG from a spawned seed, then optimise.

    Module-level (picklable) so a pool worker can run it; the
    per-restart RNG makes the outcome a pure function of
    ``(h, config, restart_seed)`` regardless of scheduling.
    """
    rng = random.Random(restart_seed)
    sides = random_balanced_sides(h, rng)
    with span("rcut.restart") as sp:
        final_sides, ratio, rounds = _run_single(h, sides, config)
        sp.set(ratio_cut=ratio, rounds=rounds)
    return final_sides, ratio, rounds


def rcut(
    h: Hypergraph,
    config: RCutConfig = RCutConfig(),
    initial_sides: Optional[List[int]] = None,
) -> PartitionResult:
    """Ratio-cut partitioning with shifting, group swapping and restarts.

    With ``initial_sides`` given, a single run is performed from that
    partition (no restarts) — used by the refinement wrapper.

    Each restart's starting partition is drawn from a private RNG
    seeded by ``spawn_seeds(config.seed, restarts)[i]``, so restart
    ``i`` is identical whether the run uses 1 restart or 100, one
    worker or eight.  (Historically all starts were drawn from one
    shared stream, so growing ``restarts`` perturbed every later
    start.)  Ties on the best ratio go to the lowest restart index.
    """
    if h.num_modules < 2:
        raise PartitionError("RCut needs at least 2 modules")
    start = time.perf_counter()

    with span("rcut", restarts=config.restarts) as rcut_span:
        if initial_sides is not None:
            final_sides, ratio, rounds = _run_single(
                h, list(initial_sides), config
            )
            outcomes = [(final_sides, ratio, rounds)]
        else:
            restart_seeds = spawn_seeds(config.seed, config.restarts)
            outcomes = pstarmap(
                _restart_task,
                [(h, config, s) for s in restart_seeds],
                config.parallel,
                label="rcut.restarts",
            )

        best_sides: Optional[List[int]] = None
        best_ratio = float("inf")
        runs = []
        for final_sides, ratio, rounds in outcomes:
            runs.append({"ratio_cut": ratio, "rounds": rounds})
            if ratio < best_ratio:
                best_ratio = ratio
                best_sides = final_sides
        rcut_span.set(best_of_runs=best_ratio)

    elapsed = time.perf_counter() - start
    if best_sides is None:
        raise PartitionError("RCut produced no partition")
    return PartitionResult(
        algorithm="RCut",
        partition=Partition(h, best_sides),
        elapsed_seconds=elapsed,
        details={
            "restarts": len(outcomes),
            "runs": runs,
            "best_of_runs": best_ratio,
            "seed": config.seed,
        },
    )
