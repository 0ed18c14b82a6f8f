"""Deterministic parallel mapping for embarrassingly parallel fan-outs.

:func:`pmap` / :func:`pstarmap` run a module-level function over a task
list — inline for one worker, on a
:class:`~concurrent.futures.ProcessPoolExecutor` for two or more — with
results that are **bit-identical to a serial run** regardless of worker
count or pool scheduling order.  Three rules make that hold:

1. *No shared randomness.*  Tasks never draw from a shared RNG stream;
   callers derive one independent seed per task up front with
   :func:`spawn_seeds` (a hash of ``(master_seed, task_index)``), so a
   task's randomness depends only on its index — not on how many tasks
   run, on which worker, or in which order.
2. *Submission-order reduction.*  Results (and worker trace fragments)
   are consumed in the order tasks were submitted, never in completion
   order, so reductions like "best of N, first wins ties" are stable.
3. *Isolated observability.*  When the parent is profiling, each task
   records into a private :mod:`repro.obs` state and returns a
   serialisable fragment that the parent merges in submission order
   (see :mod:`repro.parallel.tracing`).

Worker exceptions propagate to the caller as the *original* exception
object (first failing task in submission order), with the task context
attached as a ``__notes__`` entry on Python 3.11+ and the remote
traceback preserved on the ``worker_traceback`` attribute.

Pools are cached per worker count and reused across calls, so repeated
small fan-outs (e.g. one per hypothesis example) amortise pool start-up.
Nested fan-outs are suppressed: a ``pmap`` issued from inside a worker
runs serially inline, so configuring both an outer and an inner loop for
parallelism cannot oversubscribe or deadlock the pools.

``REPRO_WORKERS`` provides the process-wide default for call sites that
do not pass an explicit :class:`ParallelConfig` — the hook the CI
parallel job and the CLI ``--workers`` flag build on.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .tracing import capture_fragment, merge_fragment

__all__ = [
    "ParallelConfig",
    "ParallelError",
    "pmap",
    "pstarmap",
    "resolve_parallel",
    "shutdown_executors",
    "spawn_seeds",
]


class ParallelError(ReproError):
    """A worker failure that could not be propagated verbatim (e.g. an
    unpicklable exception raised in a process worker)."""


@dataclass(frozen=True)
class ParallelConfig:
    """How to run a deterministic fan-out.

    ``workers`` is the pool size: 1 runs inline, 2 or more runs on a
    process pool, and ``0`` means auto-detect (``os.cpu_count()``).
    Results are identical for every worker count — it only changes
    wall-clock time.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ReproError(
                f"workers must be >= 0 (0 = auto), got {self.workers}"
            )

    def effective_workers(self) -> int:
        """The concrete pool size (resolving ``workers=0`` to the CPU
        count)."""
        if self.workers == 0:
            return os.cpu_count() or 1
        return self.workers

    @property
    def backend(self) -> str:
        """``"process"`` when tasks run on a pool, else ``"serial"``."""
        return "process" if self.effective_workers() > 1 else "serial"


def resolve_parallel(workers: Optional[int] = None) -> ParallelConfig:
    """Build a :class:`ParallelConfig` from an explicit worker count or
    the ``REPRO_WORKERS`` environment default (else 1 worker).

    Malformed ``REPRO_WORKERS`` values raise :class:`ReproError` rather
    than silently running serial.
    """
    if workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ReproError(
                    f"REPRO_WORKERS must be an integer, got {raw!r}"
                ) from None
        else:
            workers = 1
    return ParallelConfig(workers=workers)


def spawn_seeds(seed: int, count: int) -> List[int]:
    """``count`` independent 63-bit child seeds derived from ``seed``.

    Child ``i`` depends only on ``(seed, i)`` — computed by SHA-256, so
    the derivation is identical across platforms, processes, and Python
    hash randomisation.  Extending a fan-out (``count`` -> ``count+1``)
    leaves all earlier seeds unchanged, and no worker ever touches a
    shared RNG stream.
    """
    if count < 0:
        raise ReproError(f"cannot spawn {count} seeds")
    return [_spawn_seed(seed, index) for index in range(count)]


def _spawn_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(
        f"repro.parallel:{seed}:{index}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ----------------------------------------------------------------------
# Worker bookkeeping: nested fan-outs degrade to inline serial runs.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


# Pools are cached per worker count and reused; pool workers are
# long-lived, which also amortises module imports.
_EXECUTORS: Dict[int, ProcessPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def _get_executor(workers: int) -> ProcessPoolExecutor:
    with _EXECUTORS_LOCK:
        executor = _EXECUTORS.get(workers)
        if executor is None:
            executor = ProcessPoolExecutor(
                max_workers=workers, initializer=_mark_worker
            )
            _EXECUTORS[workers] = executor
    return executor


def shutdown_executors() -> None:
    """Shut down and drop every cached pool (mainly for tests)."""
    with _EXECUTORS_LOCK:
        executors = list(_EXECUTORS.values())
        _EXECUTORS.clear()
    for executor in executors:
        executor.shutdown(wait=True)


# ----------------------------------------------------------------------
def _invoke(payload: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Run one task in a worker; never raises.

    Returns ``("ok", result, fragment)`` or ``("error", exc, tb_text)``;
    an exception that cannot survive pickling back to the parent is
    replaced by a :class:`ParallelError`.  ``memprof`` carries the
    submitting context's memory-attribution flag into the worker.
    """
    fn, args, capture, memprof = payload
    try:
        if capture:
            result, fragment = capture_fragment(fn, *args, memprof=memprof)
        else:
            result, fragment = fn(*args), None
        return ("ok", result, fragment)
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        tb_text = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = ParallelError(
                f"worker task raised an unpicklable "
                f"{type(exc).__name__}: {exc}"
            )
        return ("error", exc, tb_text)


def _raise_task_error(
    exc: BaseException, tb_text: str, index: int, total: int, label: str
) -> None:
    context = f"parallel task {index + 1}/{total} ({label})"
    exc.worker_traceback = tb_text  # type: ignore[attr-defined]
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:  # Python 3.11+
        add_note(f"raised in {context}")
    raise exc


def _run(
    fn: Callable[..., Any],
    argtuples: Sequence[Tuple[Any, ...]],
    config: Optional[ParallelConfig],
    label: str,
) -> List[Any]:
    if config is None:
        config = resolve_parallel()
    tasks = [tuple(args) for args in argtuples]
    total = len(tasks)
    if total == 0:
        return []
    workers = min(config.effective_workers(), total)
    if workers <= 1 or _IN_WORKER:
        # Inline in the caller's context: tracing needs no capture
        # dance, and nested fan-outs cannot oversubscribe the pools.
        results = []
        for index, args in enumerate(tasks):
            try:
                results.append(fn(*args))
            except Exception as exc:
                _raise_task_error(
                    exc, traceback.format_exc(), index, total, label
                )
        return results

    from .. import obs

    capture = obs.is_enabled()
    memprof = capture and obs.STATE.memprof
    executor = _get_executor(config.effective_workers())
    futures = [
        executor.submit(_invoke, (fn, args, capture, memprof))
        for args in tasks
    ]
    # Reduce strictly in submission order — both results and trace
    # fragments — so parallel runs are indistinguishable from serial
    # ones in every deterministic field.
    outcomes = [future.result() for future in futures]
    results: List[Any] = []
    for index, outcome in enumerate(outcomes):
        if outcome[0] == "ok":
            _, result, fragment = outcome
            if capture:
                merge_fragment(fragment)
            results.append(result)
        else:
            _, exc, tb_text = outcome
            _raise_task_error(exc, tb_text, index, total, label)
    return results


def pmap(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    config: Optional[ParallelConfig] = None,
    *,
    label: str = "pmap",
) -> List[Any]:
    """``[fn(item) for item in items]``, fanned out deterministically.

    ``fn`` must be a module-level callable and ``items`` picklable
    whenever a pool runs them.  ``config=None`` resolves from the
    ``REPRO_WORKERS`` environment.  ``label`` names the fan-out in
    propagated error context.
    """
    return _run(fn, [(item,) for item in items], config, label)


def pstarmap(
    fn: Callable[..., Any],
    argtuples: Iterable[Tuple[Any, ...]],
    config: Optional[ParallelConfig] = None,
    *,
    label: str = "pstarmap",
) -> List[Any]:
    """``[fn(*args) for args in argtuples]``, fanned out like
    :func:`pmap`."""
    return _run(fn, list(argtuples), config, label)
