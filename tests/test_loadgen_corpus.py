"""Corpus tests: distinct instances, JSON bodies, determinism."""

import json

import pytest

from repro.errors import ReproError
from repro.hypergraph import from_json
from repro.loadgen import Corpus, build_corpus
from repro.service import exact_fingerprint


def _exact(corpus):
    return [exact_fingerprint(from_json(e.netlist)) for e in corpus.entries]


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(distinct=3, seed=0, scale=0.1)


class TestBuildCorpus:
    def test_counts(self, corpus):
        assert len(corpus) == 3
        assert len(corpus.entries) == 3

    def test_bases_are_distinct_instances(self, corpus):
        exact = _exact(corpus)
        assert len(set(exact)) == len(exact)

    def test_netlists_round_trip(self, corpus):
        for entry in corpus.entries:
            h = from_json(json.loads(json.dumps(entry.netlist)))
            assert h.num_modules == entry.num_modules
            assert h.num_nets == entry.num_nets

    def test_deterministic_for_seed(self):
        a = build_corpus(distinct=3, seed=5, scale=0.1)
        b = build_corpus(distinct=3, seed=5, scale=0.1)
        assert [e.name for e in a.entries] == [e.name for e in b.entries]
        assert _exact(a) == _exact(b)

    def test_seed_changes_corpus(self):
        a = build_corpus(distinct=3, seed=0, scale=0.1)
        b = build_corpus(distinct=3, seed=1, scale=0.1)
        assert _exact(a) != _exact(b)

    def test_more_distinct_than_specs_bumps_generator_seed(self):
        # Asking for more bases than there are benchmark specs must
        # yield genuinely different instances, not repeats.
        corpus = build_corpus(distinct=14, seed=0, scale=0.05)
        assert len(set(_exact(corpus))) == 14

    def test_bad_inputs_rejected(self):
        with pytest.raises(ReproError):
            build_corpus(distinct=0)
        with pytest.raises(ReproError):
            build_corpus(names=[])
        with pytest.raises(ReproError):
            Corpus([])

    def test_describe_is_json_safe(self, corpus):
        doc = corpus.describe()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["entries"] == 3
        assert len(doc["names"]) == 3
        assert doc["modules"] == sum(e.num_modules for e in corpus.entries)
