"""Tests for incremental matching maintenance under the L->R sweep.

The central property: after every move, the maintained matching must be
a *maximum* matching of the current crossing bipartite graph — verified
against Hopcroft–Karp on an explicit copy of that graph.
"""

import random

import pytest

from repro.errors import MatchingError
from repro.graph import Graph
from repro.matching import IncrementalMatching
from repro.matching.incremental import VertexClass
from tests.bipartite import (
    check_matching,
    crossing_graph,
    decompose_bipartite,
    hopcroft_karp,
    matching_size,
)
from tests.conftest import random_graph
from tests.oracles import classify_from_scratch


class TestBasics:
    def test_initial_state(self):
        g = Graph(4)
        g.add_edge(0, 1)
        m = IncrementalMatching(g)
        assert m.left_count == 4
        assert m.right_count == 0
        assert m.matching_size == 0
        assert m.crossing_edge_count() == 0

    def test_single_move_creates_crossing(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        m = IncrementalMatching(g)
        m.move_to_right(0)
        assert m.side_of(0) == "R"
        assert m.crossing_edge_count() == 2
        assert m.matching_size == 1
        assert m.partner(0) in (1, 2)

    def test_move_twice_rejected(self):
        g = Graph(2)
        g.add_edge(0, 1)
        m = IncrementalMatching(g)
        m.move_to_right(0)
        with pytest.raises(MatchingError):
            m.move_to_right(0)

    @pytest.mark.parametrize("bad", [-1, -2, -4, 4, 9])
    def test_out_of_range_ids_rejected(self, bad):
        """A negative id once indexed from the end of the state lists:
        on the path 0-1-2-3, ``move_to_right(-1)`` moved vertex 3 and
        ``jump_start([-2])`` flipped vertex 2, each then reporting the
        negative id as reclassified; an id >= n raised a bare
        IndexError.  Both methods reject the id before any state
        changes."""
        g = Graph(4)
        for v in range(3):
            g.add_edge(v, v + 1)
        m = IncrementalMatching(g)
        with pytest.raises(MatchingError):
            m.move_to_right(bad)
        with pytest.raises(MatchingError):
            m.jump_start([1, bad])
        assert m.left_count == 4
        assert m.matching_size == 0
        assert m.classify() == [VertexClass.EVEN_L] * 4
        assert m.reclassified == []
        m.jump_start([1])
        assert m.classify() == classify_from_scratch(m)

    def test_full_sweep_empties_left(self):
        g = Graph(3)
        g.add_edge(0, 1)
        m = IncrementalMatching(g)
        for v in range(3):
            m.move_to_right(v)
        assert m.left_count == 0
        assert m.matching_size == 0  # no crossing edges remain

    def test_snapshot_structure(self):
        g = Graph(4)
        g.add_edge(0, 2)
        g.add_edge(1, 3)
        g.add_edge(0, 1)
        m = IncrementalMatching(g)
        m.move_to_right(0)
        snap = crossing_graph(m)
        assert snap.left == {1, 2, 3}
        assert snap.right == {0}
        # edges of g: (0,2),(1,3),(0,1); after moving 0 the crossing
        # edges are (0,2) and (0,1) — (1,3) stays inside L.
        assert snap.num_edges == 2

    def test_snapshot_edge_count_exact(self):
        g = Graph(4)
        g.add_edge(0, 2)
        g.add_edge(1, 3)
        g.add_edge(0, 1)
        m = IncrementalMatching(g)
        m.move_to_right(0)
        assert crossing_graph(m).num_edges == 2


class TestMaximalityInvariant:
    @pytest.mark.parametrize("seed", range(12))
    def test_matching_always_maximum(self, seed):
        g = random_graph(seed, num_vertices=14, edge_probability=0.3)
        m = IncrementalMatching(g)
        order = list(range(14))
        random.Random(seed).shuffle(order)
        for v in order[:-1]:
            m.move_to_right(v)
            check_matching(m)
            expected = matching_size(hopcroft_karp(crossing_graph(m)))
            assert m.matching_size == expected

    def test_dense_graph_sweep(self):
        g = Graph(10)
        for u in range(10):
            for v in range(u + 1, 10):
                g.add_edge(u, v)
        m = IncrementalMatching(g)
        for v in range(9):
            m.move_to_right(v)
            assert m.matching_size == min(v + 1, 9 - v)

    def test_matching_dict_symmetric(self):
        g = random_graph(3, num_vertices=10)
        m = IncrementalMatching(g)
        for v in range(5):
            m.move_to_right(v)
        d = m.matching_dict()
        for k, v in d.items():
            assert d[v] == k


class TestClassify:
    def test_classes_partition_vertices(self):
        g = random_graph(5, num_vertices=12)
        m = IncrementalMatching(g)
        for v in range(6):
            m.move_to_right(v)
        codes = m.classify()
        assert len(codes) == 12
        for v, code in enumerate(codes):
            if m.side_of(v) == "L":
                assert code in (
                    VertexClass.EVEN_L,
                    VertexClass.ODD_R,
                    VertexClass.CORE_L,
                )
            else:
                assert code in (
                    VertexClass.EVEN_R,
                    VertexClass.ODD_L,
                    VertexClass.CORE_R,
                )

    def test_unmatched_are_even(self):
        g = random_graph(8, num_vertices=12)
        m = IncrementalMatching(g)
        for v in range(5):
            m.move_to_right(v)
        codes = m.classify()
        for v in range(12):
            if m.partner(v) is None:
                assert codes[v] in (VertexClass.EVEN_L, VertexClass.EVEN_R)

    def test_matches_reference_decomposition(self):
        for seed in range(8):
            g = random_graph(seed + 20, num_vertices=12)
            m = IncrementalMatching(g)
            for v in range(seed % 10 + 1):
                m.move_to_right(v)
            codes = m.classify()
            ref = decompose_bipartite(crossing_graph(m), m.matching_dict())
            got_even_l = {v for v, c in enumerate(codes)
                          if c == VertexClass.EVEN_L}
            got_even_r = {v for v, c in enumerate(codes)
                          if c == VertexClass.EVEN_R}
            got_core_l = {v for v, c in enumerate(codes)
                          if c == VertexClass.CORE_L}
            assert got_even_l == set(ref.even_left)
            assert got_even_r == set(ref.even_right)
            assert got_core_l == set(ref.core_left)

    def test_winners_form_independent_set(self):
        # Even(L) u Even(R) must be independent in the crossing graph.
        for seed in range(6):
            g = random_graph(seed + 40, num_vertices=14)
            m = IncrementalMatching(g)
            for v in range(7):
                m.move_to_right(v)
            codes = m.classify()
            winners = {
                v
                for v, c in enumerate(codes)
                if c in (VertexClass.EVEN_L, VertexClass.EVEN_R)
            }
            for u in winners:
                for w in m.crossing_neighbors(u):
                    assert w not in winners or m.side_of(w) == m.side_of(u)
