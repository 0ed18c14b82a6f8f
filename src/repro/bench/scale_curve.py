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
metrics.  The exponents — *not* the raw times — are what
:func:`repro.obs.diff.diff_scale_payloads` gates on, which makes the
gate robust to machine speed: a slower CI runner shifts every point by
the same factor and leaves the slope untouched.

Measurement notes
-----------------

* Each point runs under :mod:`tracemalloc` so memory and time come from
  the same run.  tracemalloc adds allocation-proportional overhead; the
  baseline is produced the same way, so the overhead cancels in the
  exponent comparison.
* ``repeats`` re-runs each rung and keeps the *minimum* wall time and
  *maximum* heap peak — min-of-k is the standard noise reducer for
  timing, max-of-k the conservative choice for a watermark.
* The fitted ``stderr`` of the slope feeds the diff tolerance: a noisy
  fit widens its own gate (see :func:`~repro.obs.diff.diff_scale_payloads`).

Payload schema (``BENCH_scale.json``)::

    {"schema": 1, "kind": "scale",
     "circuit": "Prim2", "seed": 0, "scales": [0.05, ...],
     "algorithms": [
       {"algorithm": "ig-match",
        "points": [{"scale", "modules", "nets", "wall_s",
                    "peak_mem_bytes", "alloc_bytes",
                    "nets_cut", "ratio_cut"}, ...],
        "fits": {"time":   {"exponent", "coeff", "stderr", "r2"},
                 "memory": {"exponent", "coeff", "stderr", "r2"}}},
       ...]}
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import ReproError
from .suite import build_circuit

__all__ = [
    "DEFAULT_ALGORITHMS",
    "DEFAULT_SCALES",
    "fit_power_law",
    "run_scale_curve",
    "validate_scale_payload",
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
) -> Dict[str, Any]:
    """One ladder rung: run ``algorithm`` ``repeats`` times under
    tracemalloc, keep min wall time and max heap peak."""
    # Late import: repro.bench loads before repro.partitioning in the
    # package __init__ (same circularity as suite._circuit_task).
    from ..cli import _run_algorithm

    h = build_circuit(circuit, seed=seed, scale=scale)
    we_started = not tracemalloc.is_tracing()
    if we_started:
        tracemalloc.start()
    try:
        best_wall = math.inf
        max_peak = 0
        max_alloc = 0
        result = None
        for _ in range(max(1, repeats)):
            tracemalloc.reset_peak()
            start_bytes = tracemalloc.get_traced_memory()[0]
            t0 = time.perf_counter()
            result = _run_algorithm(
                h, algorithm, seed=seed, restarts=restarts, stride=1
            )
            wall = time.perf_counter() - t0
            current, peak = tracemalloc.get_traced_memory()
            best_wall = min(best_wall, wall)
            max_peak = max(max_peak, peak - start_bytes)
            max_alloc = max(max_alloc, current - start_bytes)
    finally:
        if we_started:
            tracemalloc.stop()
    return {
        "scale": scale,
        "modules": h.num_modules,
        "nets": h.num_nets,
        "wall_s": round(max(best_wall, _TIME_FLOOR_S), 6),
        "peak_mem_bytes": int(max(max_peak, _MEM_FLOOR_B)),
        "alloc_bytes": int(max_alloc),
        "nets_cut": result.nets_cut,
        "ratio_cut": result.ratio_cut,
    }


def run_scale_curve(
    circuit: str = "Prim2",
    seed: int = 0,
    scales: Sequence[float] = DEFAULT_SCALES,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    repeats: int = 1,
    restarts: int = 1,
    out_path: Optional[Union[str, Path]] = None,
) -> Dict[str, Any]:
    """Sweep ``circuit`` over the size ladder and fit complexity
    exponents for every algorithm.

    Returns (and optionally writes to ``out_path``, conventionally
    ``BENCH_scale.json``) the payload documented in the module
    docstring.  The x-axis of every fit is the realised module count at
    each rung, not the abstract scale factor.
    """
    scales = sorted(float(s) for s in scales)
    if len(set(scales)) < 2:
        raise ReproError(
            "a scale curve needs at least two distinct scales "
            f"(got {scales})"
        )
    records: List[Dict[str, Any]] = []
    for algorithm in algorithms:
        points = [
            _measure_point(
                circuit, seed, scale, algorithm,
                repeats=repeats, restarts=restarts,
            )
            for scale in scales
        ]
        sizes = [p["modules"] for p in points]
        records.append({
            "algorithm": algorithm,
            "points": points,
            "fits": {
                "time": fit_power_law(
                    sizes, [p["wall_s"] for p in points], _TIME_FLOOR_S
                ),
                "memory": fit_power_law(
                    sizes,
                    [p["peak_mem_bytes"] for p in points],
                    _MEM_FLOOR_B,
                ),
            },
        })
    payload: Dict[str, Any] = {
        "schema": 1,
        "kind": "scale",
        "circuit": circuit,
        "seed": seed,
        "scales": scales,
        "algorithms": records,
    }
    if out_path is not None:
        Path(out_path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return payload


#: Known BENCH_scale.json schema versions.
_KNOWN_SCALE_SCHEMAS = (1,)

_POINT_KEYS = ("scale", "modules", "wall_s", "peak_mem_bytes")
_FIT_KEYS = ("exponent", "coeff", "stderr", "r2")


def validate_scale_payload(payload: Any) -> List[str]:
    """Structural validation of a BENCH_scale payload.

    Returns a list of human-readable problems (empty = valid).  Used by
    the CLI on ``--compare`` baselines and by tests on fresh output, so
    a hand-edited or truncated baseline fails with a message instead of
    a ``KeyError`` deep inside the diff.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected object"]
    if payload.get("schema") not in _KNOWN_SCALE_SCHEMAS:
        problems.append(
            f"unknown schema {payload.get('schema')!r} "
            f"(known: {_KNOWN_SCALE_SCHEMAS})"
        )
    if payload.get("kind") != "scale":
        problems.append(
            f"kind is {payload.get('kind')!r}, expected 'scale'"
        )
    for key in ("circuit", "seed", "scales"):
        if key not in payload:
            problems.append(f"missing top-level key {key!r}")
    algorithms = payload.get("algorithms")
    if not isinstance(algorithms, list) or not algorithms:
        problems.append("'algorithms' must be a non-empty list")
        return problems
    for i, alg in enumerate(algorithms):
        label = alg.get("algorithm", f"#{i}") if isinstance(alg, dict) else f"#{i}"
        if not isinstance(alg, dict):
            problems.append(f"algorithm {label} is not an object")
            continue
        points = alg.get("points")
        if not isinstance(points, list) or len(points) < 2:
            problems.append(
                f"algorithm {label}: 'points' must list >= 2 rungs"
            )
        else:
            for j, point in enumerate(points):
                missing = [
                    k for k in _POINT_KEYS
                    if not isinstance(point, dict) or k not in point
                ]
                if missing:
                    problems.append(
                        f"algorithm {label} point {j}: missing {missing}"
                    )
        fits = alg.get("fits")
        if not isinstance(fits, dict):
            problems.append(f"algorithm {label}: missing 'fits'")
            continue
        for metric in ("time", "memory"):
            fit = fits.get(metric)
            missing = [
                k for k in _FIT_KEYS
                if not isinstance(fit, dict) or k not in fit
            ]
            if missing:
                problems.append(
                    f"algorithm {label} fits.{metric}: missing {missing}"
                )
    return problems
