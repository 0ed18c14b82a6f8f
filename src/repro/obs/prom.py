"""Prometheus text exposition: render ``/metrics``, validate scrapes.

:func:`render_prometheus` turns the serving layer's JSON metrics
document (:meth:`repro.service.engine.PartitionEngine.metrics`, with
its ``histograms`` section produced by
:meth:`repro.obs.hist.HistogramSet.snapshot`) into the Prometheus text
exposition format (version 0.0.4): ``# HELP`` / ``# TYPE`` comments,
``name{label="value"} value`` samples, and the
``_bucket``/``_sum``/``_count`` triplet per histogram series.  It is a
pure function of the JSON document, so the same bytes can be produced
from a live engine or from an archived snapshot.

:func:`parse_prometheus_text` is the matching **validator** — a small,
dependency-free parser that checks every line against the exposition
grammar and every histogram family for internal consistency
(monotonically non-decreasing cumulative buckets, a ``+Inf`` bucket
equal to ``_count``).  CI uses it to fail the build when ``/metrics``
stops being scrapeable; it is deliberately strict about what the
renderer emits rather than a full reimplementation of the Prometheus
parser.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["parse_prometheus_text", "render_prometheus"]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Keys in the flat metric sections that are point-in-time observations
#: (everything else in those sections is a lifetime counter).
_GAUGE_KEYS = {
    "cache": {
        "memory_entries",
        "memory_used_bytes",
        "memory_budget_bytes",
        "disk_enabled",
    },
    # Session-store occupancy is point-in-time (entries and retained
    # bytes); evictions/hits/misses stay lifetime counters.
    "service": {
        "service.session.entries",
        "service.session.bytes",
    },
    # cpu_*_seconds are lifetime totals (counters); the RSS and
    # tracemalloc fields are point-in-time observations.
    "process": {
        "rss_bytes",
        "max_rss_bytes",
        "tracemalloc_bytes",
        "tracemalloc_peak_bytes",
    },
}


def _sanitize(name: str) -> str:
    """A dotted repro metric name as a legal Prometheus metric name."""
    sanitized = _SANITIZE_RE.sub("_", name)
    if not _NAME_RE.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


def _fmt_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    number = float(value)
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return f"{number:.10g}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(labels: Dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize(str(k))}="{_escape_label(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, labels: Dict[str, Any], value: Any
    ) -> None:
        self.lines.append(
            f"{name}{_labels_text(labels)} {_fmt_value(value)}"
        )


def _render_flat_section(
    writer: _Writer, section: str, values: Dict[str, Any]
) -> None:
    """One metrics sub-document of scalar values (counters + gauges)."""
    gauge_keys = _GAUGE_KEYS.get(section, set())
    for key in sorted(values):
        value = values[key]
        if not isinstance(value, (int, float, bool)):
            continue
        dotted = key if key.startswith(section) else f"{section}.{key}"
        base = "repro_" + _sanitize(dotted)
        if key in gauge_keys:
            writer.family(base, "gauge", f"Current value of {dotted}.")
            writer.sample(base, {}, value)
        else:
            writer.family(
                base + "_total", "counter", f"Total of {dotted}."
            )
            writer.sample(base + "_total", {}, value)


def _render_histograms(
    writer: _Writer, histograms: Dict[str, List[Dict[str, Any]]]
) -> None:
    for name in sorted(histograms):
        base = "repro_" + _sanitize(name)
        writer.family(
            base, "histogram", f"Distribution of {name}."
        )
        for series in histograms[name]:
            labels = dict(series.get("labels", {}))
            for le, cumulative in series.get("buckets", []):
                bucket_labels = dict(labels)
                bucket_labels["le"] = (
                    "+Inf" if le == "+Inf" else _fmt_value(le)
                )
                writer.sample(base + "_bucket", bucket_labels, cumulative)
            writer.sample(base + "_sum", labels, series.get("sum", 0.0))
            writer.sample(base + "_count", labels, series.get("count", 0))


def render_prometheus(doc: Dict[str, Any]) -> str:
    """The engine's JSON metrics document as Prometheus text format.

    Sections: ``info`` (constant ``repro_build_info`` gauge carrying
    the build identity as labels), ``service`` (dotted counters),
    ``cache`` and ``process`` (counters with a few gauges, see
    ``_GAUGE_KEYS``), ``slow`` (gauges), and ``histograms``
    (:meth:`~repro.obs.hist.HistogramSet.snapshot` form).  Unknown or
    non-numeric entries are skipped, never fatal — an old scraper must
    keep working against a newer server.
    """
    writer = _Writer()
    info = doc.get("info")
    if isinstance(info, dict):
        # The conventional "constant 1 with identifying labels" gauge:
        # joinable onto any other series in PromQL, never aggregated.
        labels = {
            k: v for k, v in sorted(info.items()) if isinstance(v, str)
        }
        writer.family(
            "repro_build_info",
            "gauge",
            "Constant 1; build identity in the labels.",
        )
        writer.sample("repro_build_info", labels, 1)
    service = doc.get("service")
    if isinstance(service, dict):
        _render_flat_section(writer, "service", service)
    cache = doc.get("cache")
    if isinstance(cache, dict):
        _render_flat_section(writer, "cache", cache)
    process = doc.get("process")
    if isinstance(process, dict):
        _render_flat_section(writer, "process", process)
    slow = doc.get("slow")
    if isinstance(slow, dict):
        for key in sorted(slow):
            value = slow[key]
            if not isinstance(value, (int, float, bool)):
                continue
            name = "repro_slow_requests_" + _sanitize(key)
            writer.family(
                name, "gauge", f"Slow-request log {key}."
            )
            writer.sample(name, {}, value)
    histograms = doc.get("histograms")
    if isinstance(histograms, dict):
        _render_histograms(writer, histograms)
    return "\n".join(writer.lines) + "\n"


# ----------------------------------------------------------------------
# Validation (the CI gate)

#: Quoted label values may contain ``}``, so the label group alternates
#: between quoted strings and any other non-quote, non-brace characters.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[^\"}]|\"(?:[^\"\\]|\\.)*\")*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>-?[0-9]+))?$"
)
_LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)'
)
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")

Sample = Tuple[Dict[str, str], float]


def _parse_labels(text: Optional[str]) -> Dict[str, str]:
    if not text:
        return {}
    labels: Dict[str, str] = {}
    consumed = 0
    for match in _LABEL_RE.finditer(text):
        if match.start() != consumed:
            raise ValueError(f"malformed label pairs: {{{text}}}")
        raw = match.group(2)
        labels[match.group(1)] = (
            raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        consumed = match.end()
    if consumed != len(text):
        raise ValueError(f"malformed label pairs: {{{text}}}")
    return labels


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"bad sample value {text!r}") from None


def _family_of(name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def parse_prometheus_text(text: str) -> Dict[str, List[Sample]]:
    """Parse (and thereby validate) Prometheus text exposition output.

    Returns ``{metric name: [(labels, value), ...]}`` in input order.
    Raises :class:`ValueError` with a line-numbered message on the
    first violation:

    * a sample line that does not match the exposition grammar,
    * a malformed ``# TYPE`` comment or unknown metric type,
    * a sample whose family never appeared in a ``# TYPE`` comment,
    * a histogram family whose cumulative buckets decrease, or whose
      ``+Inf`` bucket is missing or disagrees with ``_count``.
    """
    types: Dict[str, str] = {}
    samples: Dict[str, List[Sample]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPES:
                    raise ValueError(
                        f"line {lineno}: malformed TYPE comment: {line!r}"
                    )
                if not _NAME_RE.match(parts[2]):
                    raise ValueError(
                        f"line {lineno}: bad metric name {parts[2]!r}"
                    )
                types[parts[2]] = parts[3]
            elif len(parts) >= 2 and parts[1] == "HELP":
                if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                    raise ValueError(
                        f"line {lineno}: malformed HELP comment: {line!r}"
                    )
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(
                f"line {lineno}: not a valid sample line: {line!r}"
            )
        name = match.group("name")
        family = _family_of(name)
        if name not in types and family not in types:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
        try:
            labels = _parse_labels(match.group("labels"))
            value = _parse_value(match.group("value"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        samples.setdefault(name, []).append((labels, value))
    _check_histograms(types, samples)
    return samples


def _check_histograms(
    types: Dict[str, str], samples: Dict[str, List[Sample]]
) -> None:
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = samples.get(family + "_bucket", [])
        counts = {
            tuple(sorted(labels.items())): value
            for labels, value in samples.get(family + "_count", [])
        }
        series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]]
        series = {}
        for labels, value in buckets:
            le = labels.get("le")
            if le is None:
                raise ValueError(
                    f"histogram {family}: bucket sample without le label"
                )
            rest = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            series.setdefault(rest, []).append((_parse_value(le), value))
        for rest, pairs in series.items():
            pairs.sort(key=lambda p: p[0])
            last = -1.0
            for le, cumulative in pairs:
                if cumulative < last:
                    raise ValueError(
                        f"histogram {family}{dict(rest)}: cumulative "
                        f"bucket count decreased at le={le}"
                    )
                last = cumulative
            if not pairs or not math.isinf(pairs[-1][0]):
                raise ValueError(
                    f"histogram {family}{dict(rest)}: missing +Inf bucket"
                )
            expected = counts.get(rest)
            if expected is not None and pairs[-1][1] != expected:
                raise ValueError(
                    f"histogram {family}{dict(rest)}: +Inf bucket "
                    f"{pairs[-1][1]} != _count {expected}"
                )
