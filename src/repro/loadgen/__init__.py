"""repro.loadgen — closed-loop load generation for the serving layer.

The measurement harness behind CI's serving gate.  A load run is built
from deterministic pieces plus one honest clock:

* a **corpus** (:mod:`repro.loadgen.corpus`) of distinct generated
  netlists, each serialised once;
* a **workload** (:mod:`repro.loadgen.workload`) whose request schedule
  (algorithm mix, zipf-repeated corpus draws) is a pure function of a
  seed via :func:`repro.parallel.spawn_seeds`;
* a threaded stdlib **HTTP client** (:mod:`repro.loadgen.client`) that
  sends the schedule from ``concurrency`` closed-loop workers and
  records per-request latency/status/trace-id/cache-provenance into
  client-side :class:`repro.obs.HistogramSet` histograms;
* a declarative **SLO spec** (:mod:`repro.loadgen.slo`) evaluated
  with the noise-aware verdict thresholds from :mod:`repro.obs.diff`;
* a **server cross-check** and the ``serving`` bench payload
  (:mod:`repro.loadgen.report`): ``/metrics`` is scraped (its
  Prometheus form validated with :func:`repro.obs.parse_prometheus_text`)
  before and after the run, and the server-side histogram ``_count``
  deltas and cache hit/miss counters must account for exactly the
  requests the client sent — 503 draining rejections accounted
  separately from errors.

``repro-loadgen`` (:mod:`repro.loadgen.__main__`) drives a run end to
end and writes ``BENCH_serving.json`` plus markdown/HTML reports via
:func:`repro.obs.render.publish`; it is the one producer of that
payload.  See ``docs/loadtest.md``.
"""

from .client import LoadClient, LoadResult, RequestRecord, scrape_metrics
from .corpus import Corpus, CorpusEntry, build_corpus
from .report import build_payload, crosscheck
from .scenario import run_serving_scenario
from .slo import SLOSpec, evaluate_slo, parse_slo
from .workload import (
    ALGORITHM_ALIASES,
    RequestSpec,
    Workload,
    parse_mix,
    zipf_weights,
)

__all__ = [
    "ALGORITHM_ALIASES",
    "Corpus",
    "CorpusEntry",
    "LoadClient",
    "LoadResult",
    "RequestRecord",
    "RequestSpec",
    "SLOSpec",
    "Workload",
    "build_corpus",
    "build_payload",
    "crosscheck",
    "evaluate_slo",
    "parse_mix",
    "parse_slo",
    "run_serving_scenario",
    "scrape_metrics",
    "zipf_weights",
]
