"""Warm-start differential contracts: warm must equal cold where it
overlaps, on both implementations of the pipeline steps (ids ``dict``
and ``csr``, see :func:`tests.oracles.pipeline`).

* every warm sweep evaluation equals the cold sweep's at the same rank,
  and the warm partition equals cold's when the best rank stays inside
  the window;
* ``warm_partition`` reproduces what the serving delta path returns;
* a served no-op delta is *byte-identical* (canonical result bytes) to
  the base serve;
* a delta with no warm state to start from is served cold, byte-equal
  to a cold serve of the edited netlist, and seeds the next delta; the
  result cache holds that cold answer, never a warm one;
* a session seeded from a result-cache hit serves a delta exactly as a
  session seeded by a compute does.
"""

import json
import random

import pytest

from repro.bench import build_circuit
from repro.delta import (
    NetlistDelta,
    dumps_delta,
    random_delta,
    warm_partition,
)
from repro.partitioning import IGMatchConfig, ig_match_sweep
from repro.partitioning.igmatch import SweepWarmStart
from repro.service import (
    PartitionEngine,
    PartitionRequest,
    ResultCache,
    canonical_result_bytes,
    run_partitioner,
)
from repro.service.engine import result_to_payload
from tests.conftest import random_hypergraph
from tests.oracles import IMPLEMENTATIONS, pipeline


def _base(seed=5):
    return random_hypergraph(seed, num_modules=40, num_nets=60)


def _request(algorithm):
    return PartitionRequest(algorithm=algorithm, seed=0)


def _direct_payload(h, request):
    """The payload a cold engine serve stores in its session."""
    return result_to_payload(run_partitioner(h, request))


class TestWarmSweep:
    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_warm_evaluations_equal_cold_at_same_ranks(
        self, implementation
    ):
        h = _base(seed=9)
        config = IGMatchConfig(seed=0)
        with pipeline(implementation):
            cold_evals, cold_part = ig_match_sweep(h, config)
            best_rank = min(
                cold_evals, key=lambda e: (e.ratio_cut, e.rank)
            ).rank
            lo = max(1, best_rank - 8)
            hi = min(h.num_nets - 1, best_rank + 8)
            warm = SweepWarmStart(lo=lo, hi=hi)
            warm_evals, warm_part = ig_match_sweep(h, config, warm=warm)
        cold_by_rank = {e.rank: e for e in cold_evals}
        assert warm_evals, "warm sweep evaluated nothing"
        for evaluation in warm_evals:
            cold_eval = cold_by_rank[evaluation.rank]
            assert evaluation.ratio_cut == cold_eval.ratio_cut
            assert evaluation.matching_size == cold_eval.matching_size
            assert evaluation.nets_cut == cold_eval.nets_cut
            assert (
                evaluation.assign_core_to_l
                == cold_eval.assign_core_to_l
            )
        assert warm_part is not None and cold_part is not None
        assert warm_part.sides == cold_part.sides

    def test_warm_window_outside_valid_ranks_rejected(self):
        h = _base(seed=9)
        from repro.errors import PartitionError

        with pytest.raises(PartitionError, match="warm window"):
            ig_match_sweep(
                h,
                IGMatchConfig(seed=0),
                warm=SweepWarmStart(lo=0, hi=5),
            )


class TestWarmPartition:
    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    @pytest.mark.parametrize("algorithm", ["ig-match", "fm"])
    def test_served_delta_equals_direct_warm_partition(
        self, implementation, algorithm
    ):
        h = _base(seed=7)
        request = _request(algorithm)
        delta = random_delta(h, random.Random(13))
        doc = json.loads(dumps_delta(delta))
        with pipeline(implementation):
            engine = PartitionEngine()
            base_served = engine.partition(h, request)
            served = engine.partition_delta(
                base_served.fingerprint, doc, request
            )
            payload = _direct_payload(h, request)
            application = NetlistDelta.from_doc(doc).apply_detailed(h)
            direct, _fresh, warm = warm_partition(
                payload, application, request
            )
        assert warm
        assert served.source == "delta-warm"
        assert canonical_result_bytes(
            served.result
        ) == canonical_result_bytes(direct)

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    @pytest.mark.parametrize("algorithm", ["ig-match", "fm"])
    def test_noop_delta_byte_identical_to_cold(
        self, implementation, algorithm
    ):
        h = _base(seed=2)
        request = _request(algorithm)
        noop = json.loads(dumps_delta(NetlistDelta()))
        with pipeline(implementation):
            engine = PartitionEngine()
            base_served = engine.partition(h, request)
            served = engine.partition_delta(
                base_served.fingerprint, noop, request
            )
        assert served.fingerprint == base_served.fingerprint
        assert served.source == "session"
        assert canonical_result_bytes(
            served.result
        ) == canonical_result_bytes(base_served.result)
        assert engine.stats["service.delta.noop"] == 1

    def test_non_warm_algorithm_falls_back_cold(self):
        h = _base(seed=4)
        request = _request("eig1")
        payload = _direct_payload(h, request)
        delta = random_delta(h, random.Random(2))
        application = delta.apply_detailed(h)
        result, _fresh, warm = warm_partition(
            payload, application, request
        )
        assert not warm
        assert result.partition is not None

    def test_fm_delta_on_ig_match_session_serves_cold(self):
        # The session holds only an ig-match payload, so FM has no sides
        # to warm-start from and must fall back to a cold run.
        h = build_circuit("Test02", seed=0, scale=0.05)
        delta = random_delta(h, random.Random(1), module_churn=False)
        engine = PartitionEngine()
        base_served = engine.partition(h, _request("ig-match"))
        served = engine.partition_delta(
            base_served.fingerprint, delta, _request("fm")
        )
        assert served.source == "delta-cold"
        assert canonical_result_bytes(
            served.result
        ) == canonical_result_bytes(
            run_partitioner(delta.apply(h), _request("fm"))
        )

    def test_ig_match_delta_on_fm_session_serves_cold_then_warm(self):
        # The session holds no IG-Match payload (no best rank to
        # centre a window on), so the delta runs cold, answers as a cold
        # serve would, and seeds the next delta's warm start.
        h = build_circuit("Test02", seed=0, scale=0.05)
        rng = random.Random(1)
        delta = random_delta(h, rng, module_churn=False)
        engine = PartitionEngine()
        base_served = engine.partition(h, _request("fm"))
        served = engine.partition_delta(
            base_served.fingerprint, delta, _request("ig-match")
        )
        h2 = delta.apply(h)
        assert served.source == "delta-cold"
        assert canonical_result_bytes(
            served.result
        ) == canonical_result_bytes(
            run_partitioner(h2, _request("ig-match"))
        )
        following = engine.partition_delta(
            served.fingerprint,
            random_delta(h2, rng, module_churn=False),
            _request("ig-match"),
        )
        assert following.source == "delta-warm"

    def test_delta_cold_answer_is_cached_warm_answer_is_not(self):
        # A delta-cold answer is a cold compute on the edited netlist,
        # so a later cold request for that netlist hits the cache with
        # the same bytes.  A warm answer's details differ from a cold
        # compute's, so it is never cached.
        h = build_circuit("Test02", seed=0, scale=0.05)
        rng = random.Random(1)
        delta = random_delta(h, rng, module_churn=False)
        engine = PartitionEngine(cache=ResultCache(use_disk=False))
        base_served = engine.partition(h, _request("fm"))
        served = engine.partition_delta(
            base_served.fingerprint, delta, _request("ig-match")
        )
        assert served.source == "delta-cold"
        h2 = delta.apply(h)
        again = engine.partition(h2, _request("ig-match"))
        assert again.cached and again.source == "memory"
        assert canonical_result_bytes(
            again.result
        ) == canonical_result_bytes(served.result)

        following_delta = random_delta(h2, rng, module_churn=False)
        following = engine.partition_delta(
            served.fingerprint, following_delta, _request("ig-match")
        )
        assert following.source == "delta-warm"
        cold = engine.partition(
            following_delta.apply(h2), _request("ig-match")
        )
        assert not cold.cached and cold.source == "computed"

    def test_cache_seeded_session_serves_a_delta_like_a_computed_one(self):
        # The second engine's base serve is a result-cache hit, so its
        # session holds the same payload bytes as the first engine's
        # computed one, and the delta must warm-start the same way.
        h = build_circuit("Test02", seed=0, scale=0.3)
        delta = random_delta(h, random.Random(1), module_churn=False)
        request = _request("ig-match")
        cache = ResultCache(use_disk=False)
        served = []
        for expected_source in ("computed", "memory"):
            engine = PartitionEngine(cache=cache)
            base = engine.partition(h, request)
            assert base.source == expected_source
            served.append(
                engine.partition_delta(base.fingerprint, delta, request)
            )
        computed, seeded = served
        assert seeded.source == computed.source == "delta-warm"
        assert canonical_result_bytes(
            seeded.result
        ) == canonical_result_bytes(computed.result)

    @pytest.mark.parametrize("algorithm", ["ig-match", "fm"])
    def test_quality_no_worse_over_a_chain(self, algorithm):
        h = _base(seed=17)
        request = _request(algorithm)
        rng = random.Random(5)
        payload = _direct_payload(h, request)
        for _ in range(4):
            delta = random_delta(h, rng, module_churn=False)
            application = delta.apply_detailed(h)
            result, payload, warm = warm_partition(
                payload, application, request
            )
            assert warm
            assert payload == result_to_payload(result)
            cold = run_partitioner(application.hypergraph, request)
            assert result.ratio_cut <= cold.ratio_cut
            h = application.hypergraph
