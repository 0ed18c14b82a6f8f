"""repro.parallel — deterministic fan-out over a process pool.

The executor layer behind the pipeline's embarrassingly parallel loops:
RCut random restarts, FM multi-start refinement, and the benchmark
suite's per-circuit runs.  The contract is strict determinism: for a
fixed master seed, results are bit-identical inline and on a pool of
any size, because per-task seeds are spawned up front
(:func:`spawn_seeds`), reductions happen in submission order, and each
worker's observability trace is captured privately and merged
deterministically.  See ``docs/parallel.md`` for the full contract.
"""

from .executor import (
    ParallelConfig,
    ParallelError,
    pmap,
    pstarmap,
    resolve_parallel,
    shutdown_executors,
    spawn_seeds,
)
from .tracing import capture_fragment, merge_fragment

__all__ = [
    "ParallelConfig",
    "ParallelError",
    "capture_fragment",
    "merge_fragment",
    "pmap",
    "pstarmap",
    "resolve_parallel",
    "shutdown_executors",
    "spawn_seeds",
]
