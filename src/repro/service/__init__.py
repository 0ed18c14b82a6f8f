"""repro.service — synchronous partitioning with result caching.

The serving layer that turns the one-shot library/CLI pipeline into a
long-lived engine: requests are fingerprinted
(:mod:`~repro.service.fingerprint`), answered from a two-tier
content-addressed cache when possible (:mod:`~repro.service.cache`),
and deduplicated against identical in-flight computations; each
request is served on the thread that received it.
:mod:`~repro.service.http` exposes the whole thing over a stdlib-only
JSON API (``repro-serve``).

The correctness contract is strict: a result served through the engine
— cold, cached, deduplicated, or over HTTP — is byte-identical in its
deterministic fields to the direct library call with the same seed
(:func:`~repro.service.engine.canonical_result_bytes` is the comparison
the test suite enforces across all eight partitioners).

Quickstart::

    from repro.service import PartitionEngine, PartitionRequest, ResultCache

    engine = PartitionEngine(cache=ResultCache(use_disk=False))
    served = engine.partition(h, PartitionRequest("ig-match", seed=0))
    again = engine.partition(h, PartitionRequest("ig-match", seed=0))
    assert again.cached and again.result.nets_cut == served.result.nets_cut
"""

from .cache import (
    CACHE_ENTRY_SCHEMA,
    DiskCache,
    MemoryCache,
    ResultCache,
    default_cache_dir,
)
from .engine import (
    ALGORITHMS,
    RESULT_SCHEMA,
    PartitionEngine,
    PartitionRequest,
    ServedResult,
    SlowLog,
    canonical_result_bytes,
    payload_to_result,
    result_to_payload,
    run_partitioner,
)
from .fingerprint import (
    FINGERPRINT_SCHEMA,
    canonical_fingerprint,
    exact_fingerprint,
    request_fingerprint,
)
from .http import AccessLog, create_server, serve_main

__all__ = [
    "ALGORITHMS",
    "AccessLog",
    "CACHE_ENTRY_SCHEMA",
    "DiskCache",
    "FINGERPRINT_SCHEMA",
    "MemoryCache",
    "PartitionEngine",
    "PartitionRequest",
    "RESULT_SCHEMA",
    "ResultCache",
    "ServedResult",
    "SlowLog",
    "canonical_fingerprint",
    "canonical_result_bytes",
    "create_server",
    "default_cache_dir",
    "exact_fingerprint",
    "payload_to_result",
    "request_fingerprint",
    "result_to_payload",
    "run_partitioner",
    "serve_main",
]
