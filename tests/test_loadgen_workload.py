"""Workload model tests: mixes, zipf weights, deterministic schedules."""

import threading

import pytest

from repro.errors import ReproError
from repro.loadgen import Workload, parse_mix, zipf_weights
from repro.service.engine import ALGORITHMS


class TestParseMix:
    def test_normalises_weights(self):
        mix = parse_mix("igmatch=0.5,fm=0.3,eig1=0.2")
        assert mix == {"ig-match": 0.5, "fm": 0.3, "eig1": 0.2}

    def test_unnormalised_weights_are_scaled(self):
        mix = parse_mix("fm=2,kl=2")
        assert mix == {"fm": 0.5, "kl": 0.5}

    def test_aliases_map_to_canonical_names(self):
        mix = parse_mix("igmatch=1,ig_vote=1")
        assert set(mix) == {"ig-match", "ig-vote"}

    def test_canonical_names_accepted_directly(self):
        for name in ALGORITHMS:
            assert parse_mix(name) == {name: 1.0}

    def test_bare_name_means_weight_one(self):
        assert parse_mix("fm,kl,anneal") == pytest.approx(
            {"fm": 1 / 3, "kl": 1 / 3, "anneal": 1 / 3}
        )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ReproError, match="unknown algorithm"):
            parse_mix("quantum=1.0")

    def test_repeated_algorithm_rejected(self):
        # Two different aliases for one algorithm must also collide.
        with pytest.raises(ReproError, match="repeated"):
            parse_mix("igmatch=0.5,ig-match=0.5")

    def test_bad_weight_rejected(self):
        with pytest.raises(ReproError, match="bad weight"):
            parse_mix("fm=lots")

    def test_negative_weight_rejected(self):
        with pytest.raises(ReproError, match=">= 0"):
            parse_mix("fm=-1")

    def test_zero_sum_rejected(self):
        with pytest.raises(ReproError, match="sum to zero"):
            parse_mix("fm=0,kl=0")

    def test_empty_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            parse_mix("  ")


class TestZipfWeights:
    def test_normalised(self):
        weights = zipf_weights(10, 1.1)
        assert sum(weights) == pytest.approx(1.0)
        assert all(w > 0 for w in weights)

    def test_monotone_decreasing(self):
        weights = zipf_weights(8, 1.1)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_s_zero_is_uniform(self):
        assert zipf_weights(4, 0.0) == pytest.approx([0.25] * 4)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ReproError):
            zipf_weights(0, 1.0)
        with pytest.raises(ReproError):
            zipf_weights(4, -1.0)


def _workload(**kwargs):
    defaults = dict(
        mix=parse_mix("igmatch=0.5,fm=0.3,eig1=0.2"),
        corpus_size=5,
        zipf_s=1.1,
        seed=7,
    )
    defaults.update(kwargs)
    return Workload(**defaults)


class TestWorkloadSchedule:
    def test_spec_is_deterministic(self):
        a, b = _workload(), _workload()
        for i in range(200):
            assert a.spec(i) == b.spec(i)

    def test_spec_is_order_independent(self):
        # spec(i) is a pure function of (seed, i): asking out of order
        # or repeatedly never changes the answer.
        w = _workload()
        forward = [w.spec(i) for i in range(50)]
        backward = [_workload().spec(i) for i in reversed(range(50))]
        assert forward == list(reversed(backward))

    def test_mix_frequencies_converge(self):
        w = _workload()
        n = 3000
        tally = {}
        for i in range(n):
            spec = w.spec(i)
            tally[spec.algorithm] = tally.get(spec.algorithm, 0) + 1
        assert tally["ig-match"] / n == pytest.approx(0.5, abs=0.05)
        assert tally["fm"] / n == pytest.approx(0.3, abs=0.05)
        assert tally["eig1"] / n == pytest.approx(0.2, abs=0.05)

    def test_zipf_concentrates_on_low_ranks(self):
        w = _workload(zipf_s=1.5)
        tally = [0] * 5
        for i in range(2000):
            tally[w.spec(i).entry_index] += 1
        assert tally[0] > tally[1] > tally[4]

    def test_request_seed_is_constant_across_schedule(self):
        # Per-request partition seeds would defeat the cache: repeats
        # of one corpus entry must share a fingerprint.
        w = _workload(request_seed=3)
        assert {w.spec(i).seed for i in range(100)} == {3}

    def test_thread_safety_of_seed_cache(self):
        w = _workload()
        results = [None] * 8

        def grab(slot):
            results[slot] = [w.spec(i) for i in range(300)]

        threads = [
            threading.Thread(target=grab, args=(k,)) for k in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)

    def test_entry_index_in_corpus_range(self):
        w = _workload(corpus_size=3)
        assert all(0 <= w.spec(i).entry_index < 3 for i in range(500))

    def test_negative_index_rejected(self):
        with pytest.raises(ReproError):
            _workload().spec(-1)

    def test_unknown_mix_algorithm_rejected(self):
        with pytest.raises(ReproError, match="unknown algorithm"):
            Workload({"quantum": 1.0}, corpus_size=3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ReproError, match="corpus"):
            Workload({"fm": 1.0}, corpus_size=0)


def test_describe_is_json_safe():
    import json

    doc = _workload().describe()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["corpus_size"] == 5
    assert doc["zipf_s"] == 1.1
