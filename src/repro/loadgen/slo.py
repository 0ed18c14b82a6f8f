"""Declarative SLOs with noise-aware verdicts.

An :class:`SLOSpec` is a set of service-level objectives over one load
run: latency quantile ceilings (``p50``/``p95``/``p99`` ≤ seconds), an
error-rate ceiling, and a throughput floor.  :func:`parse_slo` reads
the CLI form (``"p99=2.0,error_rate=0.01,rps=5"``);
:func:`evaluate_slo` turns observed numbers into per-objective
verdicts.

Verdicts reuse the wall-clock noise model from
:class:`repro.obs.diff.DiffThresholds` instead of a naive
``observed <= target`` comparison: an objective that is breached by
less than the noise band (2 % over a 2 s p99 ceiling, say) gets
``pass-within-noise`` rather than a hard fail, because a load test
rerun on the same machine jitters by more than that.  A breach beyond
the band is a hard ``fail``; error-rate ceilings are exact (dropped
requests are not scheduler jitter).  ``rejected`` and ``refused``
requests are flow control, not errors — they are excluded from the
error rate.

Verdict values: ``"pass"``, ``"pass-within-noise"``, ``"fail"``,
``"skipped"`` (objective had no observable data, e.g. a quantile with
zero ok requests).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from ..errors import ReproError
from ..obs.diff import FASTER, SLOWER, DiffThresholds

__all__ = ["SLOSpec", "evaluate_slo", "parse_slo"]

PASS = "pass"
PASS_WITHIN_NOISE = "pass-within-noise"
FAIL = "fail"
SKIPPED = "skipped"

#: Quantile objectives: field name -> quantile fraction.
_QUANTILE_FIELDS = {"p50": 0.50, "p95": 0.95, "p99": 0.99}


@dataclass(frozen=True)
class SLOSpec:
    """Targets; ``None`` means the objective is not asserted.

    Quantile fields are ceilings in seconds, ``error_rate`` is a
    ceiling as a fraction of non-rejected requests, ``rps`` is a
    throughput floor in completed (ok) requests per second.
    """

    p50: Optional[float] = None
    p95: Optional[float] = None
    p99: Optional[float] = None
    error_rate: Optional[float] = None
    rps: Optional[float] = None
    thresholds: DiffThresholds = field(default=DiffThresholds())

    def objectives(self) -> Dict[str, float]:
        """The asserted objectives as a flat name -> target mapping."""
        out: Dict[str, float] = {}
        for f in fields(self):
            if f.name == "thresholds":
                continue
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = float(value)
        return out

    def describe(self) -> Dict[str, Any]:
        """JSON-safe record for ``BENCH_serving.json``."""
        doc: Dict[str, Any] = dict(self.objectives())
        doc["noise"] = {
            "rel_tol": self.thresholds.rel_tol,
            "abs_floor_s": self.thresholds.abs_floor_s,
        }
        return doc


def parse_slo(text: str, thresholds: Optional[DiffThresholds] = None) -> SLOSpec:
    """Parse ``"p99=2.0,error_rate=0.01"`` into an :class:`SLOSpec`.

    Unknown objective names, repeats, and non-numeric or negative
    targets are :class:`ReproError`\\ s.
    """
    if not text or not text.strip():
        raise ReproError("empty SLO spec")
    known = set(_QUANTILE_FIELDS) | {"error_rate", "rps"}
    values: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, raw = part.partition("=")
        name = name.strip().lower()
        if name not in known:
            raise ReproError(
                f"unknown SLO objective {name!r} "
                f"(known: {', '.join(sorted(known))})"
            )
        if name in values:
            raise ReproError(f"SLO objective {name!r} repeated")
        if not eq:
            raise ReproError(f"SLO objective {name!r} needs '=<target>'")
        try:
            target = float(raw)
        except ValueError:
            raise ReproError(
                f"bad target {raw!r} for SLO objective {name!r}"
            ) from None
        if target < 0:
            raise ReproError(
                f"SLO target for {name!r} must be >= 0, got {target}"
            )
        values[name] = target
    if not values:
        raise ReproError("SLO spec asserts no objectives")
    if thresholds is not None:
        values["thresholds"] = thresholds  # type: ignore[assignment]
    return SLOSpec(**values)  # type: ignore[arg-type]


def _ceiling_verdict(
    target: float, observed: float, thresholds: DiffThresholds
) -> str:
    """Verdict for an *upper bound* objective (latency ceilings)."""
    if observed <= target:
        return PASS
    # Breached — but by more than the noise band?  verdict() says
    # SLOWER only when observed exceeds target beyond both tolerances.
    if thresholds.verdict(target, observed) == SLOWER:
        return FAIL
    return PASS_WITHIN_NOISE


def _floor_verdict(
    target: float, observed: float, thresholds: DiffThresholds
) -> str:
    """Verdict for a *lower bound* objective (throughput floors)."""
    if observed >= target:
        return PASS
    if thresholds.verdict(target, observed) == FASTER:
        return FAIL
    return PASS_WITHIN_NOISE


def evaluate_slo(
    spec: SLOSpec,
    quantiles: Dict[str, Optional[float]],
    error_rate: Optional[float],
    rps: Optional[float],
) -> List[Dict[str, Any]]:
    """Per-objective verdict rows for one run.

    ``quantiles`` maps ``"p50"``/``"p95"``/``"p99"`` to observed
    latency seconds (``None`` when unobservable); ``error_rate`` and
    ``rps`` likewise.  Objectives absent from ``spec`` produce no row.
    """
    rows: List[Dict[str, Any]] = []
    thresholds = spec.thresholds

    def row(name: str, target: float, observed: Optional[float], verdict: str) -> None:
        rows.append(
            {
                "objective": name,
                "target": target,
                "observed": observed,
                "verdict": verdict,
            }
        )

    for name in _QUANTILE_FIELDS:
        target = getattr(spec, name)
        if target is None:
            continue
        observed = quantiles.get(name)
        if observed is None:
            row(name, target, None, SKIPPED)
        else:
            row(name, target, observed, _ceiling_verdict(target, observed, thresholds))

    if spec.error_rate is not None:
        if error_rate is None:
            row("error_rate", spec.error_rate, None, SKIPPED)
        else:
            # Exact: a lost request is not timing noise.  The epsilon
            # only absorbs float division artifacts.
            verdict = PASS if error_rate <= spec.error_rate + 1e-12 else FAIL
            row("error_rate", spec.error_rate, error_rate, verdict)

    if spec.rps is not None:
        if rps is None:
            row("rps", spec.rps, None, SKIPPED)
        else:
            row("rps", spec.rps, rps, _floor_verdict(spec.rps, rps, thresholds))

    return rows

