"""The serving benchmark report: payload and cross-check.

One load run produces one bench payload of kind ``serving``
(:func:`build_payload`; schema 3, validated by
:func:`repro.obs.diff.validate_payload`, written to
``BENCH_serving.json``): the workload/corpus configuration as ``run``,
client-side outcome counts, throughput and latency quantiles as noisy
metrics, and as checks the per-objective SLO verdicts and — the part
that makes the numbers trustworthy — the **client/server cross-check**
(:func:`crosscheck`): the server's
``/metrics`` snapshot from before the run is subtracted from the one
after, and the deltas must account for exactly the requests the client
sent:

* the ``http.request.duration_seconds{method=POST,route=/partition}``
  histogram ``_count`` grew by exactly the number of HTTP responses
  the client received (ok + rejected + error — refused/transport
  requests never produced a server-side response);
* ``service.rejected`` grew by exactly the client's 429 count
  (backpressure is accounted separately from errors, and 503 draining
  rejections are not 429 backpressure);
* ``service.requests`` grew by exactly the requests that reached the
  engine (the client's 200s; non-2xx errors may fail before or after
  engine dispatch, so with errors present the check becomes a range);
* engine-internal conservation: ``cache.hit + cache.miss ==
  requests``, and the ``service.request.duration_seconds`` histogram
  count matches the counter;
* cache provenance: the client's per-``source`` tallies (computed /
  memory / disk / inflight, read from response bodies) equal the
  server's counter and cache-stat deltas.

A cross-check row that cannot be decided (mixed errors, missing
sections) is reported ``indeterminate`` rather than silently passed.

All functions here are pure — scraping and polling live in
:mod:`repro.loadgen.client` / :mod:`repro.loadgen.scenario`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..obs.diff import NOISY, check, histogram_metrics, make_payload, metric
from .client import LoadResult
from .corpus import Corpus
from .slo import SLOSpec, evaluate_slo
from .workload import Workload

__all__ = [
    "build_payload",
    "crosscheck",
    "hist_count",
]


def hist_count(
    metrics: Optional[Dict[str, Any]],
    name: str,
    **labels: str,
) -> Optional[int]:
    """Total ``count`` across a histogram's series matching ``labels``.

    ``labels`` is a subset match (a series matches when every given
    label equals).  ``None`` when the metrics doc has no histogram
    section; 0 when the section exists but no series matches (a
    before-scrape of a fresh server legitimately has no series yet).
    """
    if not metrics:
        return None
    series = metrics.get("histograms", {})
    if not isinstance(series, dict):
        return None
    total = 0
    for entry in series.get(name, []):
        entry_labels = entry.get("labels", {})
        if all(entry_labels.get(k) == v for k, v in labels.items()):
            total += int(entry.get("count", 0))
    return total


def _counter(
    metrics: Optional[Dict[str, Any]], section: str, name: str
) -> Optional[int]:
    if not metrics:
        return None
    block = metrics.get(section)
    if not isinstance(block, dict) or name not in block:
        return None
    return int(block[name])


def _delta(
    before: Optional[int], after: Optional[int]
) -> Optional[int]:
    if before is None and after is None:
        return None
    # A fresh server's before-scrape may predate a section (no jobs
    # scheduler yet, no histogram series): treat absent-before as 0.
    return (after or 0) - (before or 0)


def crosscheck(
    before: Dict[str, Any],
    after: Dict[str, Any],
    result: LoadResult,
) -> List[Dict[str, Any]]:
    """Account for every client request in the server's metric deltas.

    Returns one row per check: ``{"check", "expected", "observed",
    "status", "detail"}`` with status ``"ok"`` / ``"mismatch"`` /
    ``"indeterminate"``.  Callers gate on
    ``all(r["status"] == "ok" for r in rows)``.
    """
    rows: List[Dict[str, Any]] = []

    ok = result.count("ok")
    errors = result.count("error")
    rejected_429 = sum(1 for r in result.records if r.status == 429)
    responses = result.responses

    def check(
        name: str,
        expected: Optional[int],
        observed: Optional[int],
        detail: str = "",
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ) -> None:
        """One row; a (lo, hi) range overrides exact equality."""
        if observed is None:
            status = "indeterminate"
            detail = detail or "metric absent from scrape"
        elif lo is not None and hi is not None:
            status = "ok" if lo <= observed <= hi else "mismatch"
        else:
            status = "ok" if observed == expected else "mismatch"
        rows.append(
            {
                "check": name,
                "expected": expected,
                "observed": observed,
                "status": status,
                "detail": detail,
            }
        )

    # 1. Every HTTP response the client got is one observation in the
    #    server's POST /partition latency histogram — no more, no less.
    http_delta = _delta(
        hist_count(
            before,
            "http.request.duration_seconds",
            method="POST",
            route="/partition",
        ),
        hist_count(
            after,
            "http.request.duration_seconds",
            method="POST",
            route="/partition",
        ),
    )
    check(
        "http.request.duration_seconds count delta == client responses",
        responses,
        http_delta,
        f"client saw {responses} responses "
        f"(ok={ok} rejected={result.count('rejected')} errors={errors})",
    )

    # 2. Backpressure is accounted separately: the 429 counter moved by
    #    exactly the client's 429s (503 draining is not backpressure).
    rejected_delta = _delta(
        _counter(before, "service", "service.rejected"),
        _counter(after, "service", "service.rejected"),
    )
    check(
        "service.rejected delta == client 429s",
        rejected_429,
        rejected_delta,
    )

    # 3. Requests that reached the engine.  Errors can fail either side
    #    of engine dispatch, so with errors present the exact count is
    #    undecidable and the check degrades to a range.
    requests_delta = _delta(
        _counter(before, "service", "service.requests"),
        _counter(after, "service", "service.requests"),
    )
    if errors:
        check(
            "service.requests delta in [ok, ok + errors]",
            ok,
            requests_delta,
            f"{errors} client error(s) may or may not have reached "
            "the engine",
            lo=ok,
            hi=ok + errors,
        )
    else:
        check(
            "service.requests delta == client 200s",
            ok,
            requests_delta,
        )

    # 4. Engine conservation: every engine request is a hit or a miss.
    hit_delta = _delta(
        _counter(before, "service", "service.cache.hit"),
        _counter(after, "service", "service.cache.hit"),
    )
    miss_delta = _delta(
        _counter(before, "service", "service.cache.miss"),
        _counter(after, "service", "service.cache.miss"),
    )
    if (
        hit_delta is None
        or miss_delta is None
        or requests_delta is None
    ):
        check("cache.hit + cache.miss == service.requests", None, None)
    else:
        check(
            "cache.hit + cache.miss == service.requests",
            requests_delta,
            hit_delta + miss_delta,
        )

    # 5. The engine's own request histogram agrees with its counter.
    engine_hist_delta = _delta(
        hist_count(before, "service.request.duration_seconds"),
        hist_count(after, "service.request.duration_seconds"),
    )
    check(
        "service.request.duration_seconds count delta == "
        "service.requests delta",
        requests_delta,
        engine_hist_delta,
    )

    # 6. Cache provenance: the client's response bodies tell the same
    #    story as the server's counters, source by source.
    sources = result.by_source()
    computed_delta = _delta(
        _counter(before, "service", "service.computed"),
        _counter(after, "service", "service.computed"),
    )
    check(
        "service.computed delta == client source=computed",
        sources.get("computed", 0),
        computed_delta,
    )
    check(
        "service.cache.hit delta == client cached sources",
        sources.get("memory", 0)
        + sources.get("disk", 0)
        + sources.get("inflight", 0),
        hit_delta,
    )
    inflight_delta = _delta(
        _counter(before, "service", "service.cache.hit.inflight"),
        _counter(after, "service", "service.cache.hit.inflight"),
    )
    check(
        "service.cache.hit.inflight delta == client source=inflight",
        sources.get("inflight", 0),
        inflight_delta,
    )
    memory_delta = _delta(
        _counter(before, "cache", "memory_hits"),
        _counter(after, "cache", "memory_hits"),
    )
    check(
        "cache memory_hits delta == client source=memory",
        sources.get("memory", 0),
        memory_delta,
        "cache section absent (server running without a cache)"
        if memory_delta is None
        else "",
    )
    disk_delta = _delta(
        _counter(before, "cache", "disk_hits"),
        _counter(after, "cache", "disk_hits"),
    )
    check(
        "cache disk_hits delta == client source=disk",
        sources.get("disk", 0),
        disk_delta,
        "cache section absent (server running without a cache)"
        if disk_delta is None
        else "",
    )
    return rows


def _latency_metrics(result: LoadResult) -> List[Dict[str, Any]]:
    """Client-observed latency: overall, ok-only, ok by algorithm and
    by cache source, as histogram metrics."""
    name = "loadgen.request.duration_seconds"
    metrics: List[Dict[str, Any]] = []
    overall = result.hists.merged(name)
    if overall is not None and overall.count:
        metrics += histogram_metrics(name, overall.snapshot(), NOISY)
    by_algorithm = []
    for algorithm in sorted({r.algorithm for r in result.records}):
        hist = result.hists.get(name, algorithm=algorithm, outcome="ok")
        if hist is not None and hist.count:
            by_algorithm.append((algorithm, hist))
    if by_algorithm:
        merged = by_algorithm[0][1].copy()
        for _algorithm, hist in by_algorithm[1:]:
            merged = merged.merge(hist)
        metrics += histogram_metrics(name, merged.snapshot(), NOISY, {"outcome": "ok"})
        for algorithm, hist in by_algorithm:
            metrics += histogram_metrics(
                name, hist.snapshot(), NOISY,
                {"outcome": "ok", "algorithm": algorithm},
            )
    serve = "loadgen.serve.duration_seconds"
    for series in result.hists.snapshot().get(serve, []):
        metrics += histogram_metrics(serve, series, NOISY, series["labels"])
    return metrics


def ok_quantiles(result: LoadResult) -> Dict[str, Optional[float]]:
    """p50/p95/p99 of successful requests (``None`` s when no 200s)."""
    merged = None
    for algorithm in {r.algorithm for r in result.records}:
        hist = result.hists.get(
            "loadgen.request.duration_seconds",
            algorithm=algorithm,
            outcome="ok",
        )
        if hist is None:
            continue
        merged = hist if merged is None else merged.merge(hist)
    if merged is None or not merged.count:
        return {"p50": None, "p95": None, "p99": None}
    return merged.percentiles()


def build_payload(
    result: LoadResult,
    workload: Workload,
    corpus: Corpus,
    slo: Optional[SLOSpec],
    checks: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """Assemble the ``serving`` bench payload of one load run.

    ``checks`` are :func:`crosscheck`'s rows; they join the SLO verdicts
    as payload checks (``ok`` → ``pass``, ``mismatch`` → ``fail``), so
    the payload is ``ok`` when every server count balanced and no
    objective hard-failed.
    """
    ok = result.count("ok")
    errors = result.count("error")
    non_rejected = ok + errors
    error_rate = (errors / non_rejected) if non_rejected else None
    rps = ok / result.elapsed_s if result.elapsed_s > 0 else None
    slo_rows: List[Dict[str, Any]] = []
    if slo is not None:
        slo_rows = evaluate_slo(slo, ok_quantiles(result), error_rate, rps)

    metrics = [
        metric("requests", len(result.records), "count", NOISY),
        metric("elapsed_s", round(result.elapsed_s, 6), "s", NOISY),
        metric("behind_schedule", result.behind_schedule, "count", NOISY),
        metric(
            "requests",
            sum(1 for r in result.records if r.status == 429),
            "count", NOISY, {"status": 429},
        ),
    ]
    metrics += [
        metric("requests", result.count(outcome), "count", NOISY, {"outcome": outcome})
        for outcome in ("ok", "rejected", "error", "refused", "transport")
    ]
    metrics += [
        metric("requests", count, "count", NOISY, {"source": source})
        for source, count in sorted(result.by_source().items())
    ]
    if error_rate is not None:
        metrics.append(metric("error_rate", error_rate, "", NOISY))
    if rps is not None:
        metrics.append(metric("rps", round(rps, 6), "1/s", NOISY))
    # Isomorph traffic that missed the exact-fingerprint cache is the
    # measured win a canonical-fingerprint tier would capture: same
    # canonical fingerprint as a base, different exact key.
    isomorphs = [r for r in result.records if r.kind == "isomorph"]
    metrics += [
        metric("isomorph_requests", len(isomorphs), "count", NOISY),
        metric(
            "isomorph_computed",
            sum(1 for r in isomorphs if r.outcome == "ok" and r.source == "computed"),
            "count", NOISY,
        ),
    ]
    metrics += _latency_metrics(result)
    # The server's footprint gauges around the run (process.rss_bytes,
    # process.cpu_seconds, ...), from the two /metrics scrapes.
    for scrape, doc in (
        ("before", result.metrics_before), ("after", result.metrics_after)
    ):
        block = (doc or {}).get("process")
        if not isinstance(block, dict):
            continue
        metrics += [
            metric(
                f"process.{key}", value,
                "bytes" if key.endswith("_bytes")
                else "s" if key.endswith("seconds") else "",
                NOISY, {"scrape": scrape},
            )
            for key, value in sorted(block.items())
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]

    payload_checks = [
        check(
            f"slo.{row['objective']}",
            row["verdict"],
            f"observed {row['observed']!r} vs target {row['target']!r}",
        )
        for row in slo_rows
    ]
    payload_checks += [
        check(
            row["check"],
            {"ok": "pass", "mismatch": "fail"}.get(row["status"], row["status"]),
            f"expected {row['expected']!r}, observed {row['observed']!r}"
            + (f"; {row['detail']}" if row["detail"] else ""),
        )
        for row in checks
    ]
    run = {
        "workload": dict(workload.describe(), model=result.model),
        "corpus": corpus.describe(),
        "slo": slo.describe() if slo is not None else None,
    }
    if result.model == "closed":
        run["workload"]["concurrency"] = result.concurrency
    else:
        run["workload"]["rate"] = result.rate
    return make_payload("serving", run, metrics, payload_checks)
