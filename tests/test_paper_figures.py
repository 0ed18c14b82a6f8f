"""Worked structural examples mirroring the paper's Figures 1-4.

The original figures are schematic images, so the exact instances cannot
be copied; these tests encode the *constructions* each figure
illustrates, on hand-built instances where every quantity is computed by
hand.
"""

import pytest

from repro.hypergraph import Hypergraph
from repro.intersection import intersection_graph
from repro.matching import IncrementalMatching
from repro.partitioning import IGMatchConfig, ig_match_sweep
from tests.bipartite import (
    BipartiteGraph,
    augmenting_path_matching,
    crossing_graph,
    decompose_bipartite,
    matching_size,
)


class TestFigure1Construction:
    """Figure 1: a six-net netlist and its intersection graph with the
    paper's edge weights."""

    @pytest.fixture
    def six_net_circuit(self):
        # Six nets over nine modules; hand-picked so every weight rule
        # (shared-module degree, net sizes, multiple shares) is hit.
        nets = [
            [0, 1, 2],     # s0
            [2, 3],        # s1
            [3, 4, 5],     # s2
            [5, 6],        # s3
            [6, 7, 8],     # s4
            [0, 8],        # s5
        ]
        return Hypergraph(nets, name="fig1")

    def test_intersection_edges(self, six_net_circuit):
        g = intersection_graph(six_net_circuit, "paper")
        # Ring structure: consecutive nets share exactly one module.
        expected = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}
        assert {(u, v) for u, v, _ in g.edges()} == expected

    def test_hand_computed_weights(self, six_net_circuit):
        g = intersection_graph(six_net_circuit, "paper")
        # s0 (size 3) and s1 (size 2) share module 2 of degree 2:
        # w = 1/(2-1) * (1/3 + 1/2) = 5/6.
        assert g.weight(0, 1) == pytest.approx(5 / 6)
        # s1 (2) and s2 (3) share module 3 (degree 2): same 5/6.
        assert g.weight(1, 2) == pytest.approx(5 / 6)
        # s3 (2) and s4 (3) share module 6 (degree 2): 5/6.
        assert g.weight(3, 4) == pytest.approx(5 / 6)
        # s4 (3) and s5 (2) share module 8 (degree 2): 5/6.
        assert g.weight(4, 5) == pytest.approx(5 / 6)

    def test_no_reverse_construction_needed(self, six_net_circuit):
        # The IG is uniquely determined by H (the paper notes the
        # converse fails): rebuilding from the same H gives identical
        # weights.
        a = intersection_graph(six_net_circuit, "paper")
        b = intersection_graph(six_net_circuit, "paper")
        assert sorted(a.edges()) == sorted(b.edges())


class TestFigure2InducedBipartite:
    """Figure 2: splitting the IG vertex set induces the bipartite graph
    of crossing edges."""

    def test_crossing_edges_only(self):
        h = Hypergraph(
            [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]], name="chain"
        )
        graph = intersection_graph(h, "paper")
        matcher = IncrementalMatching(graph)
        # Move nets 0 and 1 to R: crossing edges are exactly the IG
        # edges between {0,1} and {2,3,4} = (1,2) only.
        matcher.move_to_right(0)
        matcher.move_to_right(1)
        assert set(crossing_graph(matcher).edges()) == {(2, 1)}


class TestFigure3EvenOddSets:
    """Figure 3: the matching M and the sets U_L, U_R, Even, Odd and the
    core B'."""

    def test_hand_built_decomposition(self):
        # L = {a, b, c}, R = {x, y, z}
        # Edges: a-x, b-x, b-y, c-z.  MM = {(a,x),(b,y),(c,z)} size 3?
        # No: a-x, b-y, c-z is a perfect matching, so no unmatched
        # vertices and everything is core.
        b = BipartiteGraph("abc", "xyz")
        b.add_edge("a", "x")
        b.add_edge("b", "x")
        b.add_edge("b", "y")
        b.add_edge("c", "z")
        match = augmenting_path_matching(b)
        assert matching_size(match) == 3
        d = decompose_bipartite(b, match)
        assert d.core_left == {"a", "b", "c"}
        assert d.core_right == {"x", "y", "z"}

    def test_unmatched_vertices_seed_even_sets(self):
        # L = {a, b}, R = {x}; edges a-x, b-x.  MM size 1; one of a,b
        # unmatched -> U_L nonempty, x becomes Odd(L) (a loser).
        b = BipartiteGraph("ab", "x")
        b.add_edge("a", "x")
        b.add_edge("b", "x")
        match = augmenting_path_matching(b)
        d = decompose_bipartite(b, match)
        assert d.even_left == {"a", "b"}
        assert d.odd_left == {"x"}
        assert d.critical_set == {"x"}
        assert d.maximum_independent_set() == {"a", "b"}


class TestFigure4LosersNotCut:
    """Figure 4: the completed partition can cut fewer nets than the
    maximum-matching bound, because a loser's modules may all land on
    one side."""

    def test_paper_phenomenon_instance(self):
        # Hand-built instance where a loser ends up uncut.
        #   nets: W1={0,1}, W2={1,2}, v={0,2}, X={3,4}
        # Sweep order v, X, W1, W2.  At the split {v, X} | {W1, W2}:
        # crossing edges are v-W1 (module 0) and v-W2 (module 2), the
        # maximum matching has size 1 and v is the unique loser (its
        # matching partner and the unmatched L vertex are both winners).
        # Winners W1, W2 pin modules {0,1,2} to the L side and winner X
        # pins {3,4} to the R side — so loser v = {0,2} lands entirely
        # on the L side and is NOT cut: 0 nets cut < matching size 1.
        h = Hypergraph(
            [[0, 1], [1, 2], [0, 2], [3, 4]], name="fig4"
        )
        evaluations, partition = ig_match_sweep(
            h, IGMatchConfig(), order=[2, 3, 0, 1]
        )
        assert partition is not None
        assert partition.num_nets_cut == 0
        assert all(e.nets_cut <= e.matching_size for e in evaluations)
        by_rank = {e.rank: e for e in evaluations}
        assert by_rank[2].matching_size == 1
        assert by_rank[2].nets_cut == 0  # strictly below the bound
