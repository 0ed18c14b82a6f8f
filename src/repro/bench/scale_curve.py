"""Scale-curve benchmarking: empirical complexity exponents per
algorithm.

The paper's Table 2/3 circuits top out at a few thousand modules; the
roadmap's north star is a million.  Whether an algorithm survives that
trip is a question about *slope*, not about any single wall-clock
number: an implementation whose time grows like ``n^1.1`` reaches a
million modules, one that grows like ``n^2`` does not — and a constant-
factor-fast ``n^2`` looks great on every small benchmark.

:func:`run_scale_curve` sweeps one generated circuit over a geometric
size ladder (the ``scale`` knob of :func:`repro.bench.build_circuit`),
measures wall time and Python-heap peak memory at each rung, and fits
log-log least-squares power laws ``y = coeff * n^exponent`` for both
against the module count.  The exponents — *not* the raw times — are
what the bench diff (:func:`repro.obs.diff.diff_payloads`) gates on,
which makes the gate robust to machine speed: a slower CI runner
shifts every point by the same factor and leaves the slope untouched.

Measurement notes
-----------------

* Each rung first runs once under :mod:`tracemalloc` for
  ``peak_mem_bytes`` / ``alloc_bytes``, then ``repeats`` times with
  tracing off for ``wall_s``: tracemalloc's per-allocation cost would
  otherwise dominate the timing (Prim2 ×0.4 IG-Match: about 1.25 s
  traced vs 0.21 s untraced), and the traced run also takes one-time
  set-up costs out of the timed ones.
* ``repeats`` keeps the *minimum* wall time — min-of-k is the standard
  noise reducer for timing.
* The fitted ``stderr`` of the slope feeds the diff tolerance: a noisy
  fit widens its own gate.

The result is a schema-3 bench payload of kind ``scale``
(``BENCH_scale.json``): per rung (labels ``algorithm``, ``scale``)
exact ``modules``, ``nets``, ``nets_cut``, ``ratio_cut`` and noisy
``wall_s``, ``peak_mem_bytes``, ``alloc_bytes``; per algorithm the
exponent metrics ``wall_s`` and ``peak_mem_bytes`` (``x`` =
``modules``, with ``stderr``, ``coeff``, ``r2``).
"""

from __future__ import annotations

import math
import time
import tracemalloc
from typing import Any, Dict, List, Sequence

from ..errors import ReproError
from ..obs.diff import EXACT, EXPONENT, NOISY, make_payload, metric
from .suite import build_circuit

__all__ = [
    "DEFAULT_ALGORITHMS",
    "DEFAULT_SCALES",
    "fit_power_law",
    "run_scale_curve",
]

#: Geometric ladder (each rung 2x the previous) small enough for a CI
#: smoke run yet spanning a decade of sizes — enough leverage for a
#: stable log-log slope.
DEFAULT_SCALES = (0.05, 0.1, 0.2, 0.4)

#: The paper's headline algorithm plus the classical move-based
#: baseline it is compared against.
DEFAULT_ALGORITHMS = ("ig-match", "fm")

#: Floors keep ``log`` finite when a rung is too fast/small to measure:
#: one microsecond, one byte.
_TIME_FLOOR_S = 1e-6
_MEM_FLOOR_B = 1.0


def fit_power_law(
    sizes: Sequence[float], values: Sequence[float], floor: float = 1e-12
) -> Dict[str, float]:
    """Least-squares fit of ``value = coeff * size^exponent`` in log-log
    space.

    Returns ``{"exponent", "coeff", "stderr", "r2"}`` where ``stderr``
    is the standard error of the fitted slope (0 when there are too few
    degrees of freedom to estimate it) and ``r2`` the coefficient of
    determination.  Needs at least two distinct sizes.
    """
    if len(sizes) != len(values):
        raise ReproError("fit_power_law: sizes and values differ in length")
    if len(sizes) < 2 or len(set(sizes)) < 2:
        raise ReproError(
            "fit_power_law needs at least two distinct sizes "
            f"(got {sorted(set(sizes))})"
        )
    xs = [math.log(float(s)) for s in sizes]
    ys = [math.log(max(float(v), floor)) for v in values]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = n - 2
    stderr = math.sqrt(ss_res / dof / sxx) if dof > 0 else 0.0
    return {
        "exponent": round(slope, 6),
        "coeff": round(math.exp(intercept), 12),
        "stderr": round(stderr, 6),
        "r2": round(r2, 6),
    }


def _measure_point(
    circuit: str,
    seed: int,
    scale: float,
    algorithm: str,
    repeats: int,
    restarts: int,
) -> List[Dict[str, Any]]:
    """One ladder rung: memory from one traced run, then the minimum
    wall time of ``repeats`` untraced runs."""
    # Late import: repro.bench loads before repro.partitioning in the
    # package __init__ (same circularity as suite._circuit_task).
    from ..cli import _run_algorithm

    h = build_circuit(circuit, seed=seed, scale=scale)
    we_started = not tracemalloc.is_tracing()
    if we_started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start_bytes = tracemalloc.get_traced_memory()[0]
        _run_algorithm(h, algorithm, seed=seed, restarts=restarts, stride=1)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if we_started:
            tracemalloc.stop()
    best_wall = math.inf
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = _run_algorithm(
            h, algorithm, seed=seed, restarts=restarts, stride=1
        )
        best_wall = min(best_wall, time.perf_counter() - t0)
    labels = {"algorithm": algorithm, "scale": scale}
    return [
        metric("modules", h.num_modules, "count", EXACT, labels),
        metric("nets", h.num_nets, "count", EXACT, labels),
        metric(
            "wall_s", round(max(best_wall, _TIME_FLOOR_S), 6), "s", NOISY,
            labels,
        ),
        metric(
            "peak_mem_bytes", int(max(peak - start_bytes, _MEM_FLOOR_B)),
            "bytes", NOISY, labels,
        ),
        metric(
            "alloc_bytes", int(max(current - start_bytes, 0)), "bytes",
            NOISY, labels,
        ),
        metric("nets_cut", result.nets_cut, "count", EXACT, labels),
        metric("ratio_cut", result.ratio_cut, "", EXACT, labels),
    ]


def run_scale_curve(
    circuit: str = "Prim2",
    seed: int = 0,
    scales: Sequence[float] = DEFAULT_SCALES,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    repeats: int = 1,
    restarts: int = 1,
) -> Dict[str, Any]:
    """Sweep ``circuit`` over the size ladder and fit complexity
    exponents for every algorithm.

    Returns the ``scale`` payload described in the module docstring.
    The x-axis of every fit is the realised module count at each rung,
    not the abstract scale factor.
    """
    scales = sorted(float(s) for s in scales)
    if len(set(scales)) < 2:
        raise ReproError(
            "a scale curve needs at least two distinct scales "
            f"(got {scales})"
        )
    metrics: List[Dict[str, Any]] = []
    for algorithm in algorithms:
        rungs = []
        for scale in scales:
            rung = _measure_point(
                circuit, seed, scale, algorithm,
                repeats=repeats, restarts=restarts,
            )
            metrics.extend(rung)
            rungs.append({m["name"]: m["value"] for m in rung})
        sizes = [rung["modules"] for rung in rungs]
        for name, floor in (
            ("wall_s", _TIME_FLOOR_S), ("peak_mem_bytes", _MEM_FLOOR_B)
        ):
            fit = fit_power_law(sizes, [rung[name] for rung in rungs], floor)
            metrics.append(
                metric(
                    name, fit.pop("exponent"), "", EXPONENT,
                    {"algorithm": algorithm}, x="modules", **fit,
                )
            )
    return make_payload(
        "scale",
        {
            "circuit": circuit,
            "seed": seed,
            "scales": scales,
            "algorithms": list(algorithms),
            "repeats": repeats,
        },
        metrics,
    )
