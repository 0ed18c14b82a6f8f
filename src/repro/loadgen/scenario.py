"""End-to-end load scenario: scrape, drive, settle, cross-check.

:func:`run_serving_scenario` is the shared driver behind both the
``repro-loadgen`` CLI and ``python -m repro.bench --serving-scenario``:
it scrapes ``/metrics`` before the run, drives the workload
(closed-loop or open-loop), **settles** (the server observes its
request histogram and writes its access-log line *after* the response
bytes leave the socket, so the after-scrape polls until the server's
POST ``/partition`` count stops moving rather than trusting the first
read), scrapes again, cross-checks the deltas against the client's
records, evaluates the SLO, and returns the ``serving`` bench payload
(already validated).

When no ``base_url`` is given the scenario boots a private in-process
server on an ephemeral port (memory-only cache, quiet access log) and
tears it down afterwards — that is what the bench gate uses, so it has
no external dependencies.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError
from ..obs.diff import validate_payload
from ..service.cache import ResultCache
from ..service.engine import PartitionEngine
from ..service.http import create_server
from .client import LoadClient, LoadResult, scrape_metrics
from .corpus import Corpus, build_corpus
from .report import build_payload, crosscheck, hist_count
from .slo import SLOSpec
from .workload import Workload, parse_mix

__all__ = ["run_serving_scenario", "settle_metrics"]

DEFAULT_MIX = "igmatch=0.5,fm=0.3,eig1=0.2"


def settle_metrics(
    base_url: str,
    expected_responses: int,
    timeout_s: float = 10.0,
    poll_s: float = 0.05,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Scrape ``/metrics`` until the POST ``/partition`` count settles.

    Returns ``(json_doc, prometheus_samples)`` of the final scrape.
    Settled means the count reached ``expected_responses`` *and* two
    consecutive scrapes agree (the server records its histogram
    observation and access-log entry after the response is on the wire,
    so an immediate scrape can under-count).  Times out to the last
    scrape rather than raising — the cross-check will then report the
    mismatch with real numbers instead of this helper guessing.
    """
    deadline = time.monotonic() + timeout_s
    doc, samples = scrape_metrics(base_url)
    last = hist_count(
        doc,
        "http.request.duration_seconds",
        method="POST",
        route="/partition",
    )
    while time.monotonic() < deadline:
        time.sleep(poll_s)
        doc, samples = scrape_metrics(base_url)
        now = hist_count(
            doc,
            "http.request.duration_seconds",
            method="POST",
            route="/partition",
        )
        if now == last and (now or 0) >= expected_responses:
            break
        last = now
    return doc, samples


class _LocalServer:
    """A private in-process server for self-contained scenarios."""

    def __init__(self, ready_queue_bound: int = 64):
        self.engine = PartitionEngine(
            cache=ResultCache(use_disk=False)
        )
        self.server = create_server(
            engine=self.engine,
            port=0,
            quiet=True,
            ready_queue_bound=ready_queue_bound,
        )
        host, port = self.server.server_address[:2]
        self.base_url = f"http://{host}:{port}"
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="loadgen-scenario-server",
        )

    def __enter__(self) -> "_LocalServer":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10.0)


def run_serving_scenario(
    base_url: Optional[str] = None,
    duration_s: float = 3.0,
    model: str = "closed",
    concurrency: int = 4,
    rate: float = 10.0,
    mix: str = DEFAULT_MIX,
    zipf_s: float = 1.1,
    seed: int = 0,
    slo: Optional[SLOSpec] = None,
    corpus: Optional[Corpus] = None,
    distinct: int = 3,
    isomorphs: int = 2,
    scale: float = 0.15,
    timeout_s: float = 120.0,
    settle_timeout_s: float = 10.0,
) -> Tuple[Dict[str, Any], LoadResult]:
    """One full load run; returns ``(payload, result)``.

    The payload is schema-validated before it is returned — a scenario
    that produced a malformed report raises instead of writing it.
    """
    if model not in ("closed", "open"):
        raise ReproError(
            f"workload model must be 'closed' or 'open', got {model!r}"
        )
    if corpus is None:
        corpus = build_corpus(
            distinct=distinct,
            isomorphs=isomorphs,
            seed=seed,
            scale=scale,
        )
    workload = Workload(
        mix=parse_mix(mix),
        corpus_size=len(corpus),
        zipf_s=zipf_s,
        seed=seed,
    )

    local: Optional[_LocalServer] = None
    if base_url is None:
        local = _LocalServer()
        base_url = local.base_url
    try:
        if local is not None:
            local.__enter__()
        client = LoadClient(
            base_url, corpus, workload, timeout_s=timeout_s
        )
        before_doc, before_prom = scrape_metrics(base_url)
        if model == "closed":
            result = client.run_closed(duration_s, concurrency)
        else:
            result = client.run_open(duration_s, rate)
        after_doc, after_prom = settle_metrics(
            base_url, result.responses, timeout_s=settle_timeout_s
        )
    finally:
        if local is not None:
            local.__exit__()
    result.metrics_before = before_doc
    result.metrics_after = after_doc
    result.prom_before = before_prom
    result.prom_after = after_prom

    checks = crosscheck(before_doc, after_doc, result)
    payload = build_payload(result, workload, corpus, slo, checks)
    validate_payload(payload)
    return payload, result
