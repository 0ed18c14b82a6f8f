"""Serving equivalence: engine results are byte-identical to direct calls.

The contract under test is the service's reason to exist: for every
partitioner, the result served through :class:`PartitionEngine` — cold,
cached (memory or disk), or joined onto an in-flight duplicate — has
deterministic fields byte-identical to the direct library call with the
same seed (:func:`canonical_result_bytes`).
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ReproError
from repro.service import (
    ALGORITHMS,
    PartitionEngine,
    PartitionRequest,
    ResultCache,
    canonical_result_bytes,
    payload_to_result,
    result_to_payload,
    run_partitioner,
)
from tests.conftest import random_hypergraph
from tests.strategies import partitionable_hypergraphs


@pytest.fixture
def h():
    return random_hypergraph(2, num_modules=16, num_nets=20)


def memory_engine():
    return PartitionEngine(cache=ResultCache(use_disk=False))


class TestServedEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_cold_and_cached_match_direct_call(self, h, algorithm):
        request = PartitionRequest(algorithm, seed=3)
        direct = canonical_result_bytes(run_partitioner(h, request))
        engine = memory_engine()
        cold = engine.partition(h, request)
        warm = engine.partition(h, request)
        assert not cold.cached and warm.cached
        assert canonical_result_bytes(cold.result) == direct
        assert canonical_result_bytes(warm.result) == direct

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_disk_tier_round_trip_matches(self, h, tmp_path, algorithm):
        request = PartitionRequest(algorithm, seed=1)
        direct = canonical_result_bytes(run_partitioner(h, request))
        writer = PartitionEngine(cache=ResultCache(disk_dir=tmp_path))
        writer.partition(h, request)
        # A fresh engine with an empty memory tier must hit the disk
        # entry and reproduce the exact same bytes.
        reader = PartitionEngine(cache=ResultCache(disk_dir=tmp_path))
        served = reader.partition(h, request)
        assert served.cached and served.source == "disk"
        assert canonical_result_bytes(served.result) == direct

    @settings(max_examples=15, deadline=None)
    @given(
        partitionable_hypergraphs(),
        st.sampled_from(["ig-match", "fm", "kl", "eig1"]),
        st.integers(0, 1000),
    )
    def test_property_served_equals_direct(self, h, algorithm, seed):
        request = PartitionRequest(algorithm, seed=seed)
        try:
            direct = run_partitioner(h, request)
        except ReproError:
            # Degenerate instances some algorithms reject: the engine
            # must surface the same error, not cache a bad answer.
            engine = memory_engine()
            with pytest.raises(ReproError):
                engine.partition(h, request)
            return
        engine = memory_engine()
        cold = engine.partition(h, request)
        warm = engine.partition(h, request)
        expected = canonical_result_bytes(direct)
        assert canonical_result_bytes(cold.result) == expected
        assert canonical_result_bytes(warm.result) == expected

    def test_payload_round_trip(self, h):
        request = PartitionRequest("ig-match", seed=0)
        result = run_partitioner(h, request)
        rebuilt = payload_to_result(h, result_to_payload(result))
        assert rebuilt.partition.sides == result.partition.sides
        assert rebuilt.nets_cut == result.nets_cut
        assert rebuilt.algorithm == result.algorithm

    def test_payload_schema_guard(self, h):
        request = PartitionRequest("ig-match", seed=0)
        payload = result_to_payload(run_partitioner(h, request))
        payload["schema"] = 999
        with pytest.raises(ReproError, match="schema"):
            payload_to_result(h, payload)


class TestCacheBehaviour:
    def test_use_cache_false_always_computes(self, h):
        engine = memory_engine()
        request = PartitionRequest("fm", seed=0)
        for _ in range(3):
            served = engine.partition(h, request, use_cache=False)
            assert not served.cached
        assert engine.stats["service.computed"] == 3
        assert engine.stats["service.cache.hit"] == 0

    def test_no_cache_engine_computes(self, h):
        engine = PartitionEngine(cache=None)
        request = PartitionRequest("fm", seed=0)
        engine.partition(h, request)
        served = engine.partition(h, request)
        assert not served.cached
        assert engine.stats["service.computed"] == 2

    def test_different_seeds_are_different_entries(self, h):
        engine = memory_engine()
        engine.partition(h, PartitionRequest("fm", seed=0))
        served = engine.partition(h, PartitionRequest("fm", seed=1))
        assert not served.cached

    def test_counters_one_miss_then_one_hit(self, h):
        engine = memory_engine()
        request = PartitionRequest("ig-match", seed=0)
        engine.partition(h, request)
        engine.partition(h, request)
        assert engine.stats["service.cache.miss"] == 1
        assert engine.stats["service.cache.hit"] == 1
        assert engine.stats["service.computed"] == 1
        assert engine.stats["service.requests"] == 2

    def test_cached_serve_skips_compute_phases(self, h):
        """The heart of the amortisation claim: a warm serve runs no
        intersection build, no eigensolve, no sweep — their obs spans
        are absent; only the ``service.request`` span appears."""
        from repro.bench.cache_scenario import COMPUTE_SPAN_PREFIXES

        engine = memory_engine()
        request = PartitionRequest("ig-match", seed=0)
        with obs.enabled():
            engine.partition(h, request)
            cold_phases = set(obs.flatten_totals())
        assert any(
            name.split(".")[0] in COMPUTE_SPAN_PREFIXES
            for name in cold_phases
        )
        with obs.enabled():
            served = engine.partition(h, request)
            warm_phases = set(obs.flatten_totals())
            warm_counters = obs.counters("service.")
        assert served.cached
        assert all(
            name.split(".")[0] not in COMPUTE_SPAN_PREFIXES
            for name in warm_phases
        )
        assert "service.request" in warm_phases
        assert warm_counters.get("service.cache.hit") == 1

    def test_compute_error_not_cached(self):
        # 3-module hypergraph: IG-Match needs >= 2 nets; a 1-net input
        # raises.  The error must propagate and leave no cache entry.
        from repro.hypergraph import Hypergraph

        h = Hypergraph([[0, 1, 2]])
        engine = memory_engine()
        request = PartitionRequest("ig-match", seed=0)
        with pytest.raises(ReproError):
            engine.partition(h, request)
        assert len(engine.cache.memory) == 0
        # The engine stays usable and fails the same way again.
        with pytest.raises(ReproError):
            engine.partition(h, request)

    def test_metrics_shape(self, h):
        engine = memory_engine()
        engine.partition(h, PartitionRequest("fm", seed=0))
        doc = engine.metrics()
        assert doc["service"]["service.requests"] == 1
        assert doc["cache"]["stores"] == 1
        assert "jobs" not in doc
        assert "service.rejected" not in doc["service"]


class TestThreadedSoak:
    """N workers hammering one request: exactly one compute, N-1 hits."""

    def test_duplicate_requests_compute_once(self):
        h = random_hypergraph(4, num_modules=40, num_nets=50)
        engine = memory_engine()
        request = PartitionRequest("ig-match", seed=0)
        workers = 8
        barrier = threading.Barrier(workers)
        outcomes = []
        errors = []

        def hammer():
            try:
                barrier.wait(10)
                served = engine.partition(h, request)
                outcomes.append(served)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer) for _ in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert errors == []
        assert len(outcomes) == workers
        # Exactly one computation; everyone else was served a copy.
        assert engine.stats["service.computed"] == 1
        assert engine.stats["service.cache.miss"] == 1
        assert engine.stats["service.cache.hit"] == workers - 1
        reference = canonical_result_bytes(outcomes[0].result)
        assert all(
            canonical_result_bytes(s.result) == reference
            for s in outcomes
        )
        assert sum(1 for s in outcomes if not s.cached) == 1

    def test_soak_mixed_requests(self):
        h = random_hypergraph(5, num_modules=20, num_nets=24)
        engine = memory_engine()
        requests = [
            PartitionRequest("fm", seed=s % 2) for s in range(12)
        ]
        threads = []
        errors = []

        def run(req):
            try:
                engine.partition(h, req)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        for req in requests:
            threads.append(threading.Thread(target=run, args=(req,)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert errors == []
        # Two distinct fingerprints -> exactly two computes, ten hits.
        assert engine.stats["service.computed"] == 2
        assert (
            engine.stats["service.cache.hit"]
            + engine.stats["service.cache.miss"]
            == 12
        )
        assert engine.stats["service.cache.hit"] == 10
