"""Tests for the BipartiteGraph structure."""

import pytest

from repro.errors import MatchingError
from tests.bipartite import BipartiteGraph


class TestConstruction:
    def test_empty(self):
        b = BipartiteGraph()
        assert b.num_edges == 0
        assert b.left == set() and b.right == set()

    def test_sides(self):
        b = BipartiteGraph([1, 2], ["a"])
        assert b.side_of(1) == "L"
        assert b.side_of("a") == "R"

    def test_overlapping_sides_rejected(self):
        with pytest.raises(MatchingError):
            BipartiteGraph([1], [1])

    def test_add_vertices(self):
        b = BipartiteGraph()
        b.add_left("x")
        b.add_right("y")
        assert b.side_of("x") == "L"
        b.add_left("x")  # idempotent
        with pytest.raises(MatchingError):
            b.add_right("x")


class TestEdges:
    def test_add_edge(self):
        b = BipartiteGraph([0], [1])
        b.add_edge(0, 1)
        assert b.has_edge(0, 1)
        assert b.has_edge(1, 0)
        assert b.num_edges == 1

    def test_add_edge_idempotent(self):
        b = BipartiteGraph([0], [1])
        b.add_edge(0, 1)
        b.add_edge(0, 1)
        assert b.num_edges == 1

    def test_wrong_sides_rejected(self):
        b = BipartiteGraph([0], [1])
        with pytest.raises(MatchingError):
            b.add_edge(1, 0)  # right vertex given as left

    def test_neighbors_and_degree(self):
        b = BipartiteGraph([0, 1], [2, 3])
        b.add_edge(0, 2)
        b.add_edge(0, 3)
        assert sorted(b.neighbors(0)) == [2, 3]
        assert b.degree(0) == 2
        assert b.degree(1) == 0

    def test_unknown_vertex(self):
        b = BipartiteGraph([0], [1])
        with pytest.raises(MatchingError):
            b.degree(42)

    def test_edges_iteration(self):
        b = BipartiteGraph([0, 1], [2])
        b.add_edge(0, 2)
        b.add_edge(1, 2)
        assert sorted(b.edges()) == [(0, 2), (1, 2)]


class TestValidateMatching:
    def test_valid(self):
        b = BipartiteGraph([0], [1])
        b.add_edge(0, 1)
        b.validate_matching({0: 1, 1: 0})

    def test_asymmetric_rejected(self):
        b = BipartiteGraph([0], [1])
        b.add_edge(0, 1)
        with pytest.raises(MatchingError):
            b.validate_matching({0: 1})

    def test_non_edge_rejected(self):
        b = BipartiteGraph([0], [1])
        with pytest.raises(MatchingError):
            b.validate_matching({0: 1, 1: 0})
