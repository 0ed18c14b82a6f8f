"""Cross-cutting property-based tests (hypothesis).

Complements the per-module suites with randomized invariants over the
whole pipeline: serialisation roundtrips, transformation conservation
laws, metric identities, and engine/metric agreement.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph import (
    drop_degenerate_nets,
    from_json,
    induced_subhypergraph,
    loads_net,
    dumps_net,
    merge_modules,
    net_size_histogram,
    to_json,
)
from repro.intersection import intersection_graph
from repro.partitioning import FMEngine, ratio_cut_of_sides
from repro.partitioning.metrics import net_cut_count
from tests.conftest import hypergraph_strategy
from tests.oracles import shared_module_map


class TestSerializationRoundtrips:
    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy())
    def test_json_roundtrip(self, h):
        assert from_json(to_json(h)) == h

    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy())
    def test_net_format_roundtrip(self, h):
        assert loads_net(dumps_net(h)) == h


class TestTransformInvariants:
    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy())
    def test_drop_degenerate_preserves_cut_counts(self, h):
        sides = [v % 2 for v in range(h.num_modules)]
        clean, _ = drop_degenerate_nets(h)
        assert net_cut_count(h, sides) == net_cut_count(clean, sides)

    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy(min_modules=4))
    def test_merge_conserves_area(self, h):
        # Pair up modules arbitrarily.
        clusters = [
            [v for v in (2 * i, 2 * i + 1) if v < h.num_modules]
            for i in range((h.num_modules + 1) // 2)
        ]
        coarse, assignment = merge_modules(h, clusters)
        assert coarse.total_area == pytest.approx(h.total_area)
        assert len(assignment) == h.num_modules

    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy(min_modules=5))
    def test_induced_sub_never_grows(self, h):
        subset = list(range(0, h.num_modules, 2))
        if len(subset) < 2:
            return
        sub, module_map, net_map = induced_subhypergraph(h, subset)
        assert sub.num_modules == len(subset)
        assert sub.num_nets <= h.num_nets
        for new_net, old_net in enumerate(net_map):
            assert sub.net_size(new_net) <= h.net_size(old_net)


class TestIntersectionInvariants:
    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy())
    def test_edge_iff_nonempty_share(self, h):
        g = intersection_graph(h, "unit")
        shared = shared_module_map(h)
        assert {(u, v) for u, v, _ in g.edges()} == set(shared)

    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy())
    def test_weights_positive_and_symmetric_input(self, h):
        g = intersection_graph(h, "paper")
        for u, v, w in g.edges():
            assert w > 0
            assert g.weight(v, u) == w


class TestMetricIdentities:
    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy(min_modules=4), st.integers(0, 1000))
    def test_ratio_cut_flip_invariant(self, h, seed):
        import random

        rng = random.Random(seed)
        sides = [rng.randint(0, 1) for _ in range(h.num_modules)]
        if len(set(sides)) < 2:
            sides[0] = 1 - sides[0]
        flipped = [1 - s for s in sides]
        assert ratio_cut_of_sides(h, sides) == pytest.approx(
            ratio_cut_of_sides(h, flipped)
        )

    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy(min_modules=4), st.integers(0, 1000))
    def test_engine_cut_matches_metric(self, h, seed):
        import random

        rng = random.Random(seed)
        sides = [rng.randint(0, 1) for _ in range(h.num_modules)]
        engine = FMEngine(h, sides)
        assert engine.cut == net_cut_count(h, sides)
        # And stays in sync through arbitrary moves.
        for _ in range(5):
            v = rng.randrange(h.num_modules)
            engine.move(v)
        assert engine.cut == net_cut_count(h, engine.sides)


class TestHistogramInvariants:
    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy())
    def test_histogram_partition_of_nets(self, h):
        hist = net_size_histogram(h)
        assert sum(hist.values()) == h.num_nets
        assert all(size >= 2 for size in hist)  # strategy has no tiny nets
