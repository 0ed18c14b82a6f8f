"""The bench payload: its one schema, validator and diff.

Every benchmark mode writes one JSON shape, schema 3 (documented in
``docs/observability.md``, "Bench payloads")::

    {"schema": 3,
     "kind": "obs" | "scale" | "eco" | "cache" | "serving",
     "run": {...},                                  # the producer's config
     "metrics": [{"name", "labels", "value", "unit", "kind"}, ...],
     "checks": [{"name", "status", "detail"}, ...],
     "ok": true,                                    # no check failed
     "traces": [{"labels", "events"}, ...]}         # optional

:func:`metric`, :func:`check` and :func:`make_payload` build it,
:func:`validate_payload` (and :func:`load_payload` /
:func:`write_payload` around it) is its one validator, and
:func:`diff_payloads` is its one diff.  A metric is keyed by
``(name, labels)``; its ``kind`` sets how two runs compare:

* ``exact`` — deterministic under the run's config (counters, phase
  counts, ``nets_cut``, ``ratio_cut``, input sizes).  Compared exactly,
  up to a 1e-9 relative slack for JSON float round-trips; any increase
  is ``regressed`` (more work or a worse cut), any decrease
  ``improved``.  Gates.
* ``noisy`` — measured, never gates.  Wall clocks (unit ``s``) are
  ``slower`` / ``faster``, byte sizes (unit ``bytes``) ``grew`` /
  ``shrank``, and other measured quantities (rates, speedups, request
  counts) ``grew`` / ``shrank``, each only past both bands of
  :class:`DiffThresholds`.
* ``exponent`` — the log-log slope of the metric of the same name
  against metric ``x``, fitted over the metrics whose labels extend its
  own; it carries the fit's ``stderr`` (and ``coeff``, ``r2``).  It is
  ``regressed`` / ``improved`` only when it moves by more than
  ``exponent_tol`` widened to two combined standard errors.  Gates: a
  growth law is machine-speed independent in a way seconds are not.

Keys on one side only are ``new`` / ``missing`` and never gate.
``traces`` (span and curve events for the HTML report) is ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ReproError

__all__ = [
    "BenchDiff",
    "CHECK_STATUSES",
    "DiffThresholds",
    "FieldDiff",
    "KINDS",
    "SCHEMA",
    "check",
    "diff_payloads",
    "histogram_metrics",
    "load_payload",
    "make_payload",
    "metric",
    "validate_payload",
    "write_payload",
]

SCHEMA = 3

#: Payload kinds, one per producer; ``BENCH_<kind>.json`` by default.
KINDS = ("obs", "scale", "eco", "cache", "serving")

EXACT = "exact"
NOISY = "noisy"
EXPONENT = "exponent"
METRIC_KINDS = (EXACT, NOISY, EXPONENT)

#: Check statuses.  ``pass-within-noise`` (an SLO missed by less than
#: the noise band) and ``skipped`` (nothing to observe) do not fail a
#: payload; :data:`FAILING` ones do.
CHECK_STATUSES = ("pass", "pass-within-noise", "skipped", "indeterminate", "fail")
FAILING = ("indeterminate", "fail")

#: Verdict words.  Exact metrics and exponents: unchanged / regressed /
#: improved; wall clocks: unchanged / slower / faster; other measured
#: quantities: unchanged / grew / shrank; one-sided keys: new / missing.
UNCHANGED = "unchanged"
REGRESSED = "regressed"
IMPROVED = "improved"
SLOWER = "slower"
FASTER = "faster"
GREW = "grew"
SHRANK = "shrank"
NEW = "new"
MISSING = "missing"

#: Relative equality slack for exact floats (``ratio_cut``): wide
#: enough to absorb JSON round-trip noise, far below any real change.
_FLOAT_EQ_RTOL = 1e-9

_METRIC_KEYS = ("name", "labels", "value", "unit", "kind")


def metric(
    name: str,
    value: float,
    unit: str,
    kind: str = EXACT,
    labels: Optional[Dict[str, Any]] = None,
    **fit: Any,
) -> Dict[str, Any]:
    """One metric row; ``fit`` carries an exponent's ``stderr``,
    ``coeff``, ``r2`` and ``x``."""
    row = {
        "name": name,
        "labels": dict(labels or {}),
        "value": value,
        "unit": unit,
        "kind": kind,
    }
    row.update(fit)
    return row


def check(name: str, status: Union[bool, str], detail: str = "") -> Dict[str, Any]:
    """One check row; a bool status reads as ``pass`` / ``fail``."""
    if isinstance(status, bool):
        status = "pass" if status else "fail"
    return {"name": name, "status": status, "detail": detail}


def make_payload(
    kind: str,
    run: Dict[str, Any],
    metrics: Iterable[Dict[str, Any]],
    checks: Iterable[Dict[str, Any]] = (),
    traces: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Assemble a payload; ``ok`` is true when no check failed."""
    checks = list(checks)
    payload: Dict[str, Any] = {
        "schema": SCHEMA,
        "kind": kind,
        "run": run,
        "metrics": list(metrics),
        "checks": checks,
        "ok": not any(c["status"] in FAILING for c in checks),
    }
    if traces:
        payload["traces"] = traces
    return payload


def histogram_metrics(
    name: str,
    snapshot: Dict[str, Any],
    count_kind: str,
    labels: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """A latency histogram snapshot as metrics: ``<name>.count`` plus
    one noisy ``<name>`` per quantile (label ``q``: p50/p95/p99/max)."""
    labels = dict(labels or {})
    rows = [metric(f"{name}.count", snapshot.get("count", 0), "count", count_kind, labels)]
    for q in ("p50", "p95", "p99", "max"):
        if snapshot.get(q) is not None:
            rows.append(metric(name, snapshot[q], "s", NOISY, dict(labels, q=q)))
    return rows


def _key(m: Dict[str, Any]) -> Tuple[str, Tuple[Tuple[str, Any], ...]]:
    return m["name"], tuple(sorted(m["labels"].items()))


def _is_number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _metric_problems(i: int, m: Any) -> List[str]:
    if not isinstance(m, dict):
        return [f"metric {i} is not an object"]
    missing = [k for k in _METRIC_KEYS if k not in m]
    if missing:
        return [f"metric {i}: missing {missing}"]
    where = f"metric {i} ({m['name']!r})"
    problems = []
    if not isinstance(m["name"], str) or not isinstance(m["unit"], str):
        problems.append(f"{where}: name and unit must be strings")
    labels = m["labels"]
    if not isinstance(labels, dict) or not all(
        isinstance(v, (str, int, float)) for v in labels.values()
    ):
        problems.append(f"{where}: labels must map names to scalars")
    if not _is_number(m["value"]):
        problems.append(f"{where}: value {m['value']!r} is not a finite number")
    if m["kind"] not in METRIC_KINDS:
        problems.append(f"{where}: kind {m['kind']!r} is not one of {METRIC_KINDS}")
    elif m["kind"] == EXPONENT and not _is_number(m.get("stderr")):
        problems.append(f"{where}: an exponent needs a numeric stderr")
    return problems


def _problems(payload: Any, kind: Optional[str]) -> List[str]:
    if not isinstance(payload, dict):
        return [
            "not a bench payload (expected a JSON object, got "
            f"{type(payload).__name__})"
        ]
    if payload.get("schema") != SCHEMA:
        return [
            f"unknown schema version {payload.get('schema')!r} (known: "
            f"{SCHEMA}; re-run its producer to regenerate it)"
        ]
    problems: List[str] = []
    if payload.get("kind") not in KINDS:
        problems.append(f"kind {payload.get('kind')!r} is not one of {KINDS}")
    elif kind is not None and payload["kind"] != kind:
        problems.append(
            f"kind {payload['kind']!r} differs from this run's {kind!r}"
        )
    if not isinstance(payload.get("run"), dict):
        problems.append("'run' must be an object")
    metrics = payload.get("metrics")
    if not isinstance(metrics, list):
        problems.append("'metrics' must be a list")
        metrics = []
    keys = set()
    for i, m in enumerate(metrics):
        found = _metric_problems(i, m)
        problems.extend(found)
        if not found:
            key = _key(m)
            if key in keys:
                problems.append(f"metric {i}: duplicate key {key!r}")
            keys.add(key)
    checks = payload.get("checks")
    if not isinstance(checks, list):
        problems.append("'checks' must be a list")
        checks = []
    well_formed = True
    for i, c in enumerate(checks):
        if not (
            isinstance(c, dict)
            and isinstance(c.get("name"), str)
            and isinstance(c.get("detail"), str)
            and c.get("status") in CHECK_STATUSES
        ):
            well_formed = False
            problems.append(
                f"check {i}: needs a name, a detail and a status in "
                f"{CHECK_STATUSES}"
            )
    ok = payload.get("ok")
    if not isinstance(ok, bool):
        problems.append("'ok' must be true or false")
    elif well_formed and ok != (not any(c["status"] in FAILING for c in checks)):
        problems.append("'ok' disagrees with the check statuses")
    if not isinstance(payload.get("traces", []), list):
        problems.append("'traces' must be a list")
    return problems


def validate_payload(payload: Any, kind: Optional[str] = None) -> None:
    """Raise :class:`ReproError` naming every way ``payload`` is not a
    schema-3 bench payload (of ``kind``, when given)."""
    problems = _problems(payload, kind)
    if problems:
        raise ReproError("; ".join(problems))


def load_payload(path: Union[str, Path], kind: Optional[str] = None) -> Dict[str, Any]:
    """Read and validate a payload file; any failure is one
    :class:`ReproError` naming the file, never a traceback."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read {path}: {exc}") from None
    try:
        validate_payload(payload, kind)
    except ReproError as exc:
        raise ReproError(f"{path} is not a usable bench payload: {exc}") from None
    return payload


def write_payload(payload: Dict[str, Any], path: Union[str, Path]) -> None:
    """Validate ``payload`` and write it as indented, key-sorted JSON."""
    validate_payload(payload)
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@dataclass(frozen=True)
class DiffThresholds:
    """Noise model for measured (``noisy``) metrics.

    A value is *changed* only when it moves by more than a relative band
    (a fraction of the baseline) **and** by more than an absolute floor.
    Wall clocks use ``rel_tol`` and ``abs_floor_s`` — the floor mutes
    micro-phases and zero-second baselines.  Byte sizes use
    ``mem_rel_tol`` and ``abs_floor_bytes`` (1 MiB — below that, page
    accounting noise).  Other measured quantities use ``rel_tol`` with
    no floor.
    """

    rel_tol: float = 0.25
    abs_floor_s: float = 0.02
    mem_rel_tol: float = 0.15
    abs_floor_bytes: float = float(1 << 20)

    def verdict(self, baseline: float, current: float, unit: str = "s") -> str:
        if unit == "s":
            rel, floor, up, down = self.rel_tol, self.abs_floor_s, SLOWER, FASTER
        elif unit == "bytes":
            rel, floor, up, down = self.mem_rel_tol, self.abs_floor_bytes, GREW, SHRANK
        else:
            rel, floor, up, down = self.rel_tol, 0.0, GREW, SHRANK
        delta = current - baseline
        if abs(delta) <= floor or abs(delta) <= rel * abs(baseline):
            return UNCHANGED
        return up if delta > 0 else down


@dataclass(frozen=True)
class FieldDiff:
    """One compared metric: its key, both values and the verdict.

    ``gates`` marks exact and exponent metrics, whose ``regressed``
    verdict fails ``--fail-on-regress``.
    """

    name: str
    labels: Dict[str, Any]
    kind: str
    unit: str
    baseline: Optional[float]
    current: Optional[float]
    status: str
    gates: bool

    @property
    def delta(self) -> Optional[float]:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    @property
    def is_regression(self) -> bool:
        return self.gates and self.status == REGRESSED


@dataclass
class BenchDiff:
    """The verdict of one baseline-vs-current comparison.

    ``mismatched_config`` maps each ``run`` key whose value differs to
    ``(baseline, current)``: verdicts are still produced, but a diff
    across configs is usually operator error and the renderers say so.
    """

    mismatched_config: Dict[str, Tuple[Any, Any]] = field(default_factory=dict)
    fields: List[FieldDiff] = field(default_factory=list)

    @property
    def regressions(self) -> List[FieldDiff]:
        return [f for f in self.fields if f.is_regression]

    @property
    def has_regressions(self) -> bool:
        """True when a gated metric regressed (the CI gate)."""
        return bool(self.regressions)

    @property
    def common(self) -> int:
        """How many metric keys both payloads share."""
        return sum(1 for f in self.fields if f.status not in (NEW, MISSING))

    def by_status(self, status: str) -> List[FieldDiff]:
        return [f for f in self.fields if f.status == status]

    def counts(self) -> Dict[str, int]:
        """Verdict tally over every compared metric."""
        tally: Dict[str, int] = {}
        for f in self.fields:
            tally[f.status] = tally.get(f.status, 0) + 1
        return tally


def _float_eq(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= _FLOAT_EQ_RTOL * max(abs(a), abs(b))


def _verdict(
    b: Dict[str, Any],
    c: Dict[str, Any],
    thresholds: DiffThresholds,
    exponent_tol: float,
) -> str:
    base, cur = float(b["value"]), float(c["value"])
    if c["kind"] == NOISY:
        return thresholds.verdict(base, cur, c["unit"])
    if c["kind"] == EXPONENT:
        stderr = float(b.get("stderr", 0.0)) + float(c.get("stderr", 0.0))
        if abs(cur - base) <= max(exponent_tol, 2.0 * stderr):
            return UNCHANGED
    elif _float_eq(base, cur):
        return UNCHANGED
    return REGRESSED if cur > base else IMPROVED


def diff_payloads(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    thresholds: DiffThresholds = DiffThresholds(),
    exponent_tol: float = 0.2,
) -> BenchDiff:
    """Compare two payloads metric by metric; see the module docstring.

    Fields come in the current payload's order, then the baseline-only
    (``missing``) keys.  Both payloads should be valid and of one kind.
    """
    b_run, c_run = baseline.get("run", {}), current.get("run", {})
    diff = BenchDiff(
        mismatched_config={
            k: (b_run.get(k), c_run.get(k))
            for k in sorted(set(b_run) | set(c_run))
            if b_run.get(k) != c_run.get(k)
        },
    )
    base = {_key(m): m for m in baseline.get("metrics", [])}
    cur = {_key(m): m for m in current.get("metrics", [])}
    for key in list(cur) + [k for k in base if k not in cur]:
        b, c = base.get(key), cur.get(key)
        if b is None:
            status = NEW
        elif c is None:
            status = MISSING
        else:
            status = _verdict(b, c, thresholds, exponent_tol)
        m = b if c is None else c
        diff.fields.append(
            FieldDiff(
                name=m["name"],
                labels=m["labels"],
                kind=m["kind"],
                unit=m["unit"],
                baseline=None if b is None else b["value"],
                current=None if c is None else c["value"],
                status=status,
                gates=m["kind"] != NOISY,
            )
        )
    return diff
