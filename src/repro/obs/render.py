"""Render bench payloads, their diffs and traces for humans.

:func:`render_markdown` and :func:`render_html` are the one renderer
for every bench payload kind (:mod:`repro.obs.diff`): both views print
the same rows — the run config, every check, the baseline comparison
when a diff is given, and every metric, one row per label set.  The
HTML view adds a log-log chart of each fitted exponent over its
measured points, and the payload's traces: a phase-tree flame view
rebuilt from span events and one chart per convergence curve.
:func:`render_trace_html` (one profiled run's events) and
:func:`render_slow_html` (``GET /debug/slow`` exemplars) reuse the same
flame and chart code.  :func:`publish` is the write / compare / report
tail both benchmark CLIs share.

Every page is self-contained — inline CSS and SVG, no scripts, no
external assets — so it can be archived as a CI artifact and opened
anywhere.

The span-tree reconstruction relies on the event contract of
:mod:`repro.obs.events`: spans are emitted *at close* in ``seq`` order
with ``depth`` equal to the node's depth, so a parent always follows
its children and claims every pending node one level deeper.
"""

from __future__ import annotations

import html
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .diff import (
    EXPONENT,
    FAILING,
    FASTER,
    GREW,
    IMPROVED,
    MISSING,
    NEW,
    REGRESSED,
    SHRANK,
    SLOWER,
    UNCHANGED,
    BenchDiff,
    DiffThresholds,
    diff_payloads,
    write_payload,
)

__all__ = [
    "load_jsonl",
    "publish",
    "render_html",
    "render_markdown",
    "render_slow_html",
    "render_trace_html",
    "span_tree_from_events",
]


# ----------------------------------------------------------------------
# Span-tree reconstruction (depth/seq -> nested dicts)


def span_tree_from_events(
    events: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Rebuild the phase tree from ``span`` events.

    Returns a list of root nodes ``{"name", "dur_s", "count", "attrs",
    "children"}``.  Events must be in ``seq`` order (as written);
    non-span events are ignored.
    """
    pending: Dict[int, List[Dict[str, Any]]] = {}
    reserved = {"type", "name", "dur_s", "depth", "seq", "count"}
    for event in events:
        if event.get("type") != "span":
            continue
        depth = int(event.get("depth", 0))
        node = {
            "name": event.get("name", "?"),
            "dur_s": float(event.get("dur_s", 0.0)),
            "count": int(event.get("count", 1)),
            "attrs": {
                k: v for k, v in event.items() if k not in reserved
            },
            "children": pending.pop(depth + 1, []),
        }
        pending.setdefault(depth, []).append(node)
    roots = pending.get(0, [])
    # Orphans (trace cut mid-run) surface as extra roots rather than
    # vanishing.
    for depth in sorted(k for k in pending if k > 0):
        roots.extend(pending[depth])
    return roots


def _tree_from_nodes(nodes: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The same tree from span-node dicts (``seconds`` keyed), the shape
    :class:`repro.obs.trace.TraceCapture` stores."""
    return [
        {
            "name": node.get("name", "?"),
            "dur_s": float(node.get("seconds", 0.0)),
            "count": int(node.get("count", 1)),
            "attrs": dict(node.get("attrs", {})),
            "children": _tree_from_nodes(node.get("children", [])),
        }
        for node in nodes
    ]


# ----------------------------------------------------------------------
# Inline SVG charts

#: Known convergence curves: name -> (x field, y field).
_CURVE_FIELDS: Dict[str, Tuple[str, str]] = {
    "splits.curve": ("ranks", "ratio_cuts"),
    "igmatch.curve": ("ranks", "ratio_cuts"),
    "fm.curve": ("passes", "cuts"),
}


def _curve_series(
    event: Dict[str, Any],
) -> Optional[Tuple[List[float], List[float]]]:
    """Extract (xs, ys) from a curve point event, if it is one."""
    name = event.get("name", "")
    if name in _CURVE_FIELDS:
        x_field, y_field = _CURVE_FIELDS[name]
    else:
        lists = [
            k
            for k, v in event.items()
            if isinstance(v, list) and v
            and all(isinstance(e, (int, float)) for e in v)
        ]
        if len(lists) < 2:
            return None
        x_field, y_field = lists[0], lists[1]
    xs = event.get(x_field)
    ys = event.get(y_field)
    if not isinstance(xs, list) or not isinstance(ys, list):
        return None
    n = min(len(xs), len(ys))
    if n < 2:
        return None
    return [float(x) for x in xs[:n]], [float(y) for y in ys[:n]]


def _num(value: float) -> str:
    """Integers in full, other numbers to about four digits."""
    return str(value) if isinstance(value, int) else _fmt(value)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.3g}"
    return f"{value:.4g}"


def _axis(values: Sequence[float], log: bool) -> List[float]:
    """Plot coordinates: log10 on a log axis, with non-positive values
    clamped to 1% of the smallest positive one."""
    if not log:
        return [float(v) for v in values]
    floor = min((v for v in values if v > 0), default=1e-16) * 1e-2
    return [math.log10(max(v, floor)) for v in values]


def _svg_chart(
    title: str,
    xs: Sequence[float],
    ys: Sequence[float],
    fit: Optional[Tuple[float, float]] = None,
) -> str:
    """One inline SVG chart (340x180, no external assets).

    The series is a polyline with its lowest point marked.  ``fit`` =
    ``(exponent, coeff)`` switches to log-log axes, overlays the power
    law ``coeff * x**exponent`` as a dashed line and dots every measured
    point, so curvature away from the fit is visible at a glance.
    """
    width, height = 340, 180
    left, right, top, bottom = 52, 10, 22, 22
    plot_w = width - left - right
    plot_h = height - top - bottom
    log = fit is not None
    xt, yt = _axis(xs, log), _axis(ys, log)
    x_min, x_max = min(xt), max(xt)
    y_min, y_max = min(yt), max(yt)
    fit_ends: List[float] = []
    if fit is not None:
        exponent, coeff = fit
        fit_ends = [math.log10(coeff) + exponent * x for x in (x_min, x_max)]
        y_min, y_max = min(y_min, *fit_ends), max(y_max, *fit_ends)
        title = f"{title} ~ n^{exponent:.2f}"
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def px(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return top + (y_max - y) / (y_max - y_min) * plot_h

    def label(value: float) -> str:
        return _fmt(10 ** value if log else value)

    scale = " (log-log)" if log else ""
    points = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xt, yt))
    best = min(range(len(yt)), key=yt.__getitem__)
    parts = [
        f'<svg class="curve" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<text x="{left}" y="13" class="ct">{html.escape(title)}{scale}'
        "</text>"
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'class="pf"/>'
    ]
    if fit_ends:
        parts.append(
            f'<polyline points="{px(x_min):.1f},{py(fit_ends[0]):.1f} '
            f'{px(x_max):.1f},{py(fit_ends[1]):.1f}" class="pfit"/>'
        )
    parts.append(f'<polyline points="{points}" class="pl"/>')
    if fit_ends:
        parts.extend(
            f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.5" class="pp"/>'
            for x, y in zip(xt, yt)
        )
    else:
        parts.append(
            f'<circle cx="{px(xt[best]):.1f}" cy="{py(yt[best]):.1f}" '
            'r="3" class="pb"/>'
        )
    parts.append(
        f'<text x="{left - 4}" y="{top + 8}" class="al" text-anchor="end">'
        f"{label(y_max)}</text>"
        f'<text x="{left - 4}" y="{top + plot_h}" class="al" '
        f'text-anchor="end">{label(y_min)}</text>'
        f'<text x="{left}" y="{height - 6}" class="al">'
        f"{label(x_min)}</text>"
        f'<text x="{width - right}" y="{height - 6}" class="al" '
        f'text-anchor="end">{label(x_max)}</text></svg>'
    )
    return "".join(parts)


def _curves_html(point_events: Sequence[Dict[str, Any]]) -> str:
    charts = []
    for event in point_events:
        series = _curve_series(event)
        if series is None:
            continue
        charts.append(_svg_chart(event.get("name", "?"), *series))
    if not charts:
        return ""
    return '<div class="curves">' + "".join(charts) + "</div>"


# ----------------------------------------------------------------------
# Phase-tree flame view and trace sections


def _flame_rows(
    nodes: Sequence[Dict[str, Any]],
    depth: int,
    total: float,
    rows: List[str],
) -> None:
    for node in nodes:
        pct = 100.0 * node["dur_s"] / total if total > 0 else 0.0
        tally = f" ×{node['count']}" if node["count"] > 1 else ""
        attrs = " ".join(
            f"{k}={v}" for k, v in sorted(node["attrs"].items())
        )
        rows.append(
            '<div class="frow">'
            f'<span class="fname" style="padding-left:{depth * 18}px" '
            f'title="{html.escape(attrs)}">'
            f"{html.escape(node['name'])}{tally}</span>"
            f'<span class="fsecs">{node["dur_s"]:.4f}s</span>'
            f'<span class="fbar"><span class="ffill" '
            f'style="width:{pct:.2f}%"></span></span>'
            "</div>"
        )
        _flame_rows(node["children"], depth + 1, total, rows)


def _flame_html(roots: Sequence[Dict[str, Any]]) -> str:
    if not roots:
        return ""
    total = sum(node["dur_s"] for node in roots) or 1.0
    rows: List[str] = []
    _flame_rows(roots, 0, total, rows)
    return '<div class="flame">' + "".join(rows) + "</div>"


def _counters_html(counters: Dict[str, float]) -> str:
    if not counters:
        return ""
    rows = "".join(
        f"<tr><td>{html.escape(name)}</td>"
        f'<td class="num">{_fmt(float(value))}</td></tr>'
        for name, value in sorted(counters.items())
    )
    return (
        "<details><summary>counters</summary>"
        f"<table>{rows}</table></details>"
    )


def _trace_html(
    roots: Sequence[Dict[str, Any]],
    events: Sequence[Dict[str, Any]],
    counters: Dict[str, float],
) -> str:
    """Flame view, convergence curves and counters of one trace."""
    points = [e for e in events if e.get("type") == "point"]
    return _flame_html(roots) + _curves_html(points) + _counters_html(counters)


_CSS = """
body{font:14px/1.45 -apple-system,'Segoe UI',Roboto,sans-serif;
  margin:24px auto;max-width:1060px;color:#1a1a2e;padding:0 16px}
h1{font-size:22px}h2{font-size:17px;margin:28px 0 8px;
  border-bottom:1px solid #d8d8e0;padding-bottom:4px}
table{border-collapse:collapse;margin:8px 0}
td,th{padding:3px 10px;border:1px solid #e2e2ea;text-align:left}
th{background:#f4f4f8}.num{text-align:right;
  font-variant-numeric:tabular-nums}
.meta{color:#555;font-size:13px}
.flame{margin:8px 0;border:1px solid #e2e2ea;border-radius:4px;
  padding:6px 8px}
.frow{display:flex;align-items:center;gap:8px;font-size:13px;
  padding:1px 0}
.fname{flex:0 0 340px;overflow:hidden;text-overflow:ellipsis;
  white-space:nowrap;font-family:ui-monospace,monospace}
.fsecs{flex:0 0 84px;text-align:right;
  font-variant-numeric:tabular-nums}
.fbar{flex:1;background:#f0f0f5;border-radius:2px;height:12px;
  overflow:hidden}
.ffill{display:block;height:100%;background:#5b7fd4;min-width:1px}
.curves{display:flex;flex-wrap:wrap;gap:10px;margin:8px 0}
.curve{border:1px solid #e2e2ea;border-radius:4px;background:#fff}
.ct{font-size:11px;font-weight:600;fill:#1a1a2e}
.al{font-size:10px;fill:#777}
.pf{fill:#fafafc;stroke:#e2e2ea}
.pl{fill:none;stroke:#5b7fd4;stroke-width:1.5}
.pb{fill:#d4605b}
.pp{fill:#5b7fd4}
.pfit{fill:none;stroke:#d4605b;stroke-width:1.2;
  stroke-dasharray:5 3}
.bad{color:#b02a2a}.bad td{background:#fdeaea}
.warn{color:#9a6b00}.warn td{background:#fdf6e3}
.good{color:#1d7a3d}.good td:last-child{background:#e8f7ee}
.info td{background:#eef3fb}
.badge{display:inline-block;padding:1px 8px;border-radius:10px;
  background:#f0f0f5;margin-right:4px;font-size:12px}
details summary{cursor:pointer;color:#555;font-size:13px}
"""


def _page(title: str, body: str) -> str:
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>{body}</body></html>"
    )


def render_trace_html(
    events: Sequence[Dict[str, Any]],
    title: str = "repro trace report",
) -> str:
    """Render a JSON-lines trace (list of event dicts) as HTML.

    Accepts the events of one profiled run — e.g.
    ``[json.loads(line) for line in open("trace.jsonl")]`` — and shows
    the phase-tree flame view, convergence curves, and final counters.
    """
    counters: Dict[str, float] = {}
    for event in events:
        if event.get("type") == "counters":
            counters = event.get("values", {})
    body = _trace_html(span_tree_from_events(events), events, counters)
    return _page(title, body or "<p>(no events)</p>")


def render_slow_html(
    exemplars: Sequence[Dict[str, Any]],
    title: str = "repro slow requests",
) -> str:
    """Render ``GET /debug/slow`` exemplars as a self-contained report.

    Each exemplar (see :class:`repro.service.engine.SlowLog`) gets one
    section: the request's provenance line (trace id, algorithm, cache
    source, duration, capture time), the full phase-tree flame view of
    what the request actually computed, any convergence curves its
    point events carried, and its counter totals.  Newest first.
    """
    sections: List[str] = []
    for entry in exemplars:
        trace_id = html.escape(str(entry.get("trace_id", "?")))
        meta = (
            f'<p class="meta">trace <strong>{trace_id}</strong>'
            f" · algorithm {html.escape(str(entry.get('algorithm', '?')))}"
            f" · source {html.escape(str(entry.get('source', '?')))}"
            f" · {float(entry.get('duration_s', 0.0)):.4f}s"
            f" · {html.escape(str(entry.get('time', '?')))}</p>"
        )
        trace = _trace_html(
            _tree_from_nodes(entry.get("spans", [])),
            entry.get("events", []),
            entry.get("counters", {}),
        )
        sections.append(f"<section><h2>{trace_id}</h2>{meta}{trace}</section>")
    if not sections:
        sections.append("<p>(no slow requests recorded)</p>")
    return _page(title, "".join(sections))


# ----------------------------------------------------------------------
# Bench payloads: the rows both views print


def _labels_text(labels: Dict[str, Any]) -> str:
    return " ".join(f"{k}={labels[k]}" for k in sorted(labels))


def _flatten(prefix: str, value: Any, out: List[Tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], out)
    elif isinstance(value, list):
        out.append((prefix, ", ".join(str(v) for v in value)))
    else:
        out.append((prefix, str(value)))


def _run_items(payload: Dict[str, Any]) -> List[Tuple[str, str]]:
    """The run config as flat ``(key, value)`` items."""
    items: List[Tuple[str, str]] = []
    _flatten("", payload.get("run", {}), items)
    return items


def _run_text(payload: Dict[str, Any]) -> str:
    return " · ".join(
        [str(payload.get("kind"))] + [f"{k}={v}" for k, v in _run_items(payload)]
    )


def _value_text(m: Dict[str, Any]) -> str:
    """One metric as both views print it."""
    if m["kind"] == EXPONENT:
        text = f"∝ {m.get('x', 'n')}^{m['value']:.3f} ±{m['stderr']:.3f}"
        if "r2" in m:
            text += f" (R²={m['r2']:.3f})"
        return text
    unit = "" if m["unit"] in ("", "count") else f" {m['unit']}"
    return f"{_num(m['value'])}{unit}"


def _metric_groups(
    payload: Dict[str, Any],
) -> List[Tuple[str, List[str]]]:
    """Every metric as ``name=value``, one row per label set, in order
    of first appearance."""
    groups: Dict[str, List[str]] = {}
    for m in payload.get("metrics", []):
        groups.setdefault(_labels_text(m["labels"]), []).append(
            f"{m['name']}={_value_text(m)}"
        )
    return list(groups.items())


#: Markdown marks and HTML row classes of check statuses and verdicts.
_MARK = {
    "pass": "✓",
    "pass-within-noise": "~",
    "skipped": "·",
    "indeterminate": "?",
    "fail": "✗",
    REGRESSED: "✗",
    IMPROVED: "✓",
    NEW: "·",
    MISSING: "·",
}

_CLASS = {
    "pass": "good",
    "pass-within-noise": "warn",
    "skipped": "info",
    "indeterminate": "warn",
    "fail": "bad",
    REGRESSED: "bad",
    SLOWER: "warn",
    GREW: "warn",
    IMPROVED: "good",
    FASTER: "good",
    SHRANK: "good",
    NEW: "info",
    MISSING: "info",
}


def _checks_headline(payload: Dict[str, Any]) -> Optional[str]:
    checks = payload.get("checks", [])
    if not checks:
        return None
    failed = sum(1 for c in checks if c["status"] in FAILING)
    if failed:
        return f"✗ FAILED: {failed} of {len(checks)} check(s)"
    return f"✓ all {len(checks)} checks passed"


def _diff_summary(diff: BenchDiff) -> Tuple[Optional[str], str]:
    """The config-mismatch warning (if any) and the verdict headline."""
    counts = diff.counts()
    tally = ", ".join(f"{counts[s]} {s}" for s in sorted(counts))
    warning = None
    if diff.mismatched_config:
        warning = "⚠ config mismatch: " + ", ".join(
            f"{k}={b!r}→{c!r}" for k, (b, c) in diff.mismatched_config.items()
        )
    if diff.has_regressions:
        headline = (
            f"✗ REGRESSED: {len(diff.regressions)} gated metric(s) "
            f"({tally or 'nothing compared'})"
        )
    else:
        headline = f"✓ no gated regressions ({tally or 'nothing compared'})"
    return warning, headline


def _diff_rows(diff: BenchDiff) -> List[Tuple[str, str, str, str, str]]:
    """Each changed metric: (labels, name, baseline, current, verdict)."""
    return [
        (
            _labels_text(f.labels),
            f.name,
            "—" if f.baseline is None else _num(f.baseline),
            "—" if f.current is None else _num(f.current),
            f.status,
        )
        for f in diff.fields
        if f.status != UNCHANGED
    ]


def render_markdown(
    payload: Dict[str, Any], diff: Optional[BenchDiff] = None
) -> str:
    """The compact view of a bench payload (and diff), for CI logs."""
    lines = [_run_text(payload)]
    headline = _checks_headline(payload)
    if headline:
        lines.append(headline)
    for c in payload.get("checks", []):
        detail = f": {c['detail']}" if c["detail"] else ""
        lines.append(
            f"- {_MARK.get(c['status'], '·')} {c['name']} ({c['status']})"
            f"{detail}"
        )
    if diff is not None:
        warning, verdict = _diff_summary(diff)
        lines.extend(line for line in (warning, verdict) if line)
        for labels, name, base, cur, status in _diff_rows(diff):
            where = f"{labels} {name}" if labels else name
            lines.append(
                f"- {_MARK.get(status, '~')} {where}: {base} → {cur} ({status})"
            )
    for labels, items in _metric_groups(payload):
        lines.append(f"- {labels or '(run)'}: " + " · ".join(items))
    return "\n".join(lines)


def _table(head: Sequence[str], rows: Sequence[Sequence[str]], classes: Sequence[str]) -> str:
    cells = "".join(f"<th>{html.escape(h)}</th>" for h in head)
    body = "".join(
        f'<tr class="{cls}">'
        + "".join(f"<td>{html.escape(cell)}</td>" for cell in row)
        + "</tr>"
        for row, cls in zip(rows, classes)
    )
    return f"<table><tr>{cells}</tr>{body}</table>"


def _fit_charts(metrics: Sequence[Dict[str, Any]]) -> str:
    """A log-log chart per exponent: the metric it was fitted on,
    against its ``x`` metric, over the label sets extending its own."""
    by_key = {
        (m["name"], _labels_text(m["labels"])): m["value"]
        for m in metrics
        if m["kind"] != EXPONENT
    }
    charts = []
    for fit in metrics:
        if fit["kind"] != EXPONENT or "x" not in fit or "coeff" not in fit:
            continue
        points = sorted(
            (by_key[(fit["x"], _labels_text(m["labels"]))], m["value"])
            for m in metrics
            if m["name"] == fit["name"]
            and m["kind"] != EXPONENT
            and all(m["labels"].get(k) == v for k, v in fit["labels"].items())
            and (fit["x"], _labels_text(m["labels"])) in by_key
        )
        if len(points) >= 2:
            title = f"{fit['name']} vs {fit['x']} · {_labels_text(fit['labels'])}"
            charts.append(
                _svg_chart(
                    title,
                    [x for x, _ in points],
                    [y for _, y in points],
                    fit=(fit["value"], fit["coeff"]),
                )
            )
    return '<div class="curves">' + "".join(charts) + "</div>" if charts else ""


def render_html(
    payload: Dict[str, Any],
    diff: Optional[BenchDiff] = None,
    title: Optional[str] = None,
) -> str:
    """The full, self-contained HTML view of a bench payload (and diff)."""
    sections = [
        f'<p class="meta">{html.escape(_run_text(payload))} · schema '
        f"{payload.get('schema')}</p>"
    ]
    checks = payload.get("checks", [])
    if checks:
        failed = any(c["status"] in FAILING for c in checks)
        sections.append(
            "<section><h2>Checks</h2>"
            f'<p class="{"bad" if failed else "good"}"><strong>'
            f"{html.escape(_checks_headline(payload) or '')}</strong></p>"
            + _table(
                ("check", "status", "detail"),
                [(c["name"], c["status"], c["detail"]) for c in checks],
                [_CLASS.get(c["status"], "") for c in checks],
            )
            + "</section>"
        )
    if diff is not None:
        warning, verdict = _diff_summary(diff)
        rows = _diff_rows(diff)
        sections.append(
            "<section><h2>Baseline comparison</h2>"
            + (f'<p class="bad">{html.escape(warning)}</p>' if warning else "")
            + f'<p class="{"bad" if diff.has_regressions else "good"}">'
            f"<strong>{html.escape(verdict)}</strong></p>"
            + _table(
                ("labels", "metric", "baseline", "current", "verdict"),
                rows or [("", "no changes: every metric within tolerance", "", "", "")],
                [_CLASS.get(row[4], "") for row in rows] or [""],
            )
            + "</section>"
        )
    metrics = payload.get("metrics", [])
    groups = _metric_groups(payload)
    sections.append(
        "<section><h2>Metrics</h2>"
        + _fit_charts(metrics)
        + _table(
            ("labels", "metrics"),
            [(labels or "(run)", " · ".join(items)) for labels, items in groups],
            [""] * len(groups),
        )
        + "</section>"
    )
    for trace in payload.get("traces", []):
        events = trace.get("events", [])
        sections.append(
            f"<section><h2>{html.escape(_labels_text(trace.get('labels', {})))}"
            "</h2>"
            + _trace_html(span_tree_from_events(events), events, {})
            + "</section>"
        )
    return _page(title or f"repro {payload.get('kind')} report", "".join(sections))


# ----------------------------------------------------------------------
# The CLI tail


def publish(
    payload: Dict[str, Any],
    out: Optional[str] = None,
    report: Optional[str] = None,
    baseline: Optional[Dict[str, Any]] = None,
    thresholds: DiffThresholds = DiffThresholds(),
    exponent_tol: float = 0.2,
    fail_on_regress: bool = False,
    quiet: bool = False,
) -> int:
    """Write, compare and report one payload; return the exit code.

    Writes ``payload`` to ``out``, diffs it against ``baseline``, prints
    the markdown view (unless ``quiet``) and writes the HTML view to
    ``report``.  Exit codes: 0 ok; 1 a check failed, or a gated metric
    regressed under ``fail_on_regress``; 2 the baseline shares no
    metric key with the run, so nothing was compared.  Raises
    ``OSError`` when a file cannot be written.
    """
    if out:
        write_payload(payload, out)
        print(f"wrote {out}", file=sys.stderr)
    diff = None
    if baseline is not None:
        diff = diff_payloads(baseline, payload, thresholds, exponent_tol)
        if not diff.common:
            print(
                "error: the baseline shares no metric with this run "
                "(other circuits, algorithms or ladder?); nothing to compare",
                file=sys.stderr,
            )
            return 2
    if not quiet:
        print(render_markdown(payload, diff))
    if report:
        Path(report).write_text(render_html(payload, diff), encoding="utf-8")
        print(f"wrote report to {report}", file=sys.stderr)
    if not payload["ok"]:
        print("FAIL: a check failed", file=sys.stderr)
        return 1
    if diff is not None and fail_on_regress and diff.has_regressions:
        print(
            f"FAIL: {len(diff.regressions)} gated regression(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def load_jsonl(path: Any) -> List[Dict[str, Any]]:
    """Read a JSON-lines trace file into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
