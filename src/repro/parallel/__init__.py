"""repro.parallel — deterministic fan-out over threads or processes.

The executor layer behind the pipeline's embarrassingly parallel loops:
RCut random restarts, FM multi-start refinement, and the benchmark
suite's per-circuit runs.  The contract is strict determinism: for a
fixed master seed, results are bit-identical across the ``serial``,
``thread``, and ``process`` backends and any worker count, because
per-task seeds are spawned up front
(:func:`spawn_seeds`), reductions happen in submission order, and each
worker's observability trace is captured privately and merged
deterministically.  See ``docs/parallel.md`` for the full contract and
backend trade-offs.
"""

from .executor import (
    BACKENDS,
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
    "BACKENDS",
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
