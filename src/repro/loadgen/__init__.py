"""repro.loadgen — workload-model load generation for the serving layer.

The measurement harness that makes the serving stack's throughput
claims falsifiable.  A load run is built from four deterministic
pieces plus one honest clock:

* a **corpus** (:mod:`repro.loadgen.corpus`) of generated netlists —
  distinct base circuits plus *relabeled isomorphic duplicates* (same
  :func:`repro.service.canonical_fingerprint`, different exact
  fingerprint), so runs quantify how much a canonical-fingerprint
  cache tier would save;
* a **workload model** (:mod:`repro.loadgen.workload`) — closed-loop
  fixed-concurrency or open-loop Poisson arrivals — whose request
  schedule (algorithm mix, zipf-repeated corpus draws, arrival times)
  is a pure function of a seed via
  :func:`repro.parallel.spawn_seeds`;
* a threaded stdlib **HTTP client** (:mod:`repro.loadgen.client`)
  recording per-request latency/status/trace-id/cache-provenance into
  client-side :class:`repro.obs.HistogramSet` histograms;
* a declarative **SLO spec** (:mod:`repro.loadgen.slo`) evaluated
  with the noise-aware verdict thresholds from :mod:`repro.obs.diff`;
* a **server cross-check** and the ``serving`` bench payload
  (:mod:`repro.loadgen.report`): ``/metrics`` is scraped (and
  validated with :func:`repro.obs.parse_prometheus_text`) before and
  after the run, and the server-side histogram ``_count`` deltas and
  cache hit/miss counters must account for exactly the requests the
  client sent — 429 backpressure rejections accounted separately.

``repro-loadgen`` (:mod:`repro.loadgen.__main__`) drives a run end to
end and writes ``BENCH_serving.json`` plus markdown/HTML reports via
:func:`repro.obs.render.publish`.  See ``docs/loadtest.md``.
"""

from .client import LoadClient, LoadResult, RequestRecord, scrape_metrics
from .corpus import Corpus, CorpusEntry, build_corpus
from .report import build_payload, crosscheck
from .scenario import run_serving_scenario
from .slo import SLOSpec, evaluate_slo, parse_slo, slo_ok
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
    "slo_ok",
    "zipf_weights",
]
