"""Tests for intersection-graph construction and weightings.

The figures in the paper are schematic images, so the construction rules
of Section 2.2 are verified here on hand-computed instances instead
(see tests/test_paper_figures.py for the worked structural examples).
"""

import pytest

from repro.hypergraph import Hypergraph
from repro.intersection import (
    available_weightings,
    get_weighting,
    intersection_graph,
    intersection_nonzeros,
)
from tests.oracles import shared_module_map


class TestSharedModuleMap:
    def test_tiny(self, tiny_hypergraph):
        shared = shared_module_map(tiny_hypergraph)
        assert shared == {(0, 1): [1], (0, 2): [0], (1, 2): [3]}

    def test_multi_shared(self):
        h = Hypergraph([[0, 1, 2], [0, 1, 3]])
        shared = shared_module_map(h)
        assert shared == {(0, 1): [0, 1]}

    def test_disjoint_nets(self):
        h = Hypergraph([[0, 1], [2, 3]])
        assert shared_module_map(h) == {}


class TestStructure:
    def test_vertex_is_net(self, tiny_hypergraph):
        g = intersection_graph(tiny_hypergraph)
        assert g.num_vertices == tiny_hypergraph.num_nets

    def test_edges_iff_shared_module(self, tiny_hypergraph):
        g = intersection_graph(tiny_hypergraph)
        assert g.num_edges == 3  # triangle: every pair shares a module

    def test_unique_for_given_hypergraph(self, small_circuit):
        a = intersection_graph(small_circuit)
        b = intersection_graph(small_circuit)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_degenerate_nets_isolated(self):
        h = Hypergraph([[0, 1], [2]], num_modules=3)
        g = intersection_graph(h)
        assert g.num_vertices == 2
        assert g.num_edges == 0

    def test_matches_nets_sharing_module(self, small_circuit):
        g = intersection_graph(small_circuit)
        for net in range(0, small_circuit.num_nets, 7):
            assert sorted(g.neighbors(net)) == (
                small_circuit.nets_sharing_module(net)
            )


class TestPaperWeighting:
    def test_single_shared_module(self, tiny_hypergraph):
        # s0={0,1}, s1={1,2,3}: share module 1 with degree 2.
        # A' = 1/(2-1) * (1/2 + 1/3) = 5/6
        g = intersection_graph(tiny_hypergraph, "paper")
        assert g.weight(0, 1) == pytest.approx(5 / 6)
        assert g.weight(0, 2) == pytest.approx(1.0)
        assert g.weight(1, 2) == pytest.approx(5 / 6)

    def test_multiple_shared_modules_sum(self):
        # s0={0,1,2}, s1={0,1,3}: two shared modules of degree 2 each:
        # A' = 2 * [1/(2-1) * (1/3 + 1/3)] = 4/3
        h = Hypergraph([[0, 1, 2], [0, 1, 3]])
        g = intersection_graph(h, "paper")
        assert g.weight(0, 1) == pytest.approx(4 / 3)

    def test_high_degree_module_discounted(self):
        # Module 0 on 3 nets: d=3, each pair gets 1/(3-1) factor.
        h = Hypergraph([[0, 1], [0, 2], [0, 3]])
        g = intersection_graph(h, "paper")
        assert g.weight(0, 1) == pytest.approx(0.5 * (0.5 + 0.5))

    def test_small_net_overlaps_weigh_more(self):
        # Identical sharing structure, different net sizes.
        h = Hypergraph([[0, 1], [0, 2], [3, 4, 5, 0]], num_modules=6)
        g = intersection_graph(h, "paper")
        small_pair = g.weight(0, 1)  # sizes 2,2
        large_pair = g.weight(0, 2)  # sizes 2,4
        assert small_pair > large_pair


class TestAlternativeWeightings:
    def test_all_available(self):
        assert set(available_weightings()) >= {
            "paper", "unit", "overlap", "jaccard"
        }

    def test_unit(self, tiny_hypergraph):
        g = intersection_graph(tiny_hypergraph, "unit")
        for u, v, w in g.edges():
            assert w == 1.0

    def test_overlap(self):
        h = Hypergraph([[0, 1, 2], [0, 1, 3]])
        g = intersection_graph(h, "overlap")
        assert g.weight(0, 1) == 2.0

    def test_jaccard(self):
        h = Hypergraph([[0, 1, 2], [0, 1, 3]])
        g = intersection_graph(h, "jaccard")
        assert g.weight(0, 1) == pytest.approx(2 / 4)

    def test_custom_callable(self, tiny_hypergraph):
        """Weightings are named schemes; a callable is a typed error."""
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown weighting"):
            intersection_graph(
                tiny_hypergraph, lambda h, a, b, shared: 42.0
            )

    def test_unknown_name_raises(self, tiny_hypergraph):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            intersection_graph(tiny_hypergraph, "nope")

    def test_same_edge_set_across_weightings(self, small_circuit):
        edge_sets = []
        for name in available_weightings():
            g = intersection_graph(small_circuit, name)
            edge_sets.append({(u, v) for u, v, _ in g.edges()})
        assert all(s == edge_sets[0] for s in edge_sets)


class TestSparsity:
    def test_nonzeros_counts_both_triangles(self, tiny_hypergraph):
        assert intersection_nonzeros(tiny_hypergraph) == 6

    def test_nonzeros_matches_graph(self, small_circuit):
        g = intersection_graph(small_circuit)
        assert intersection_nonzeros(small_circuit) == g.num_nonzeros

    def test_wide_nets_favor_intersection_graph(self):
        # One 30-pin net: clique 870 nonzeros, IG 0 extra vertices' edges.
        h = Hypergraph([list(range(30)), [0, 1]])
        from repro.netmodels import get_model

        clique_nz = get_model("clique").to_graph(h).num_nonzeros
        assert clique_nz >= 870
        assert intersection_nonzeros(h) == 2
