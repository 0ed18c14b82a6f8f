"""Tests for the Graph substrate."""

import pytest

from repro.errors import GraphError
from repro.graph import Graph


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_add_edge(self):
        g = Graph(3)
        g.add_edge(0, 2, 1.5)
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert g.weight(0, 2) == 1.5
        assert g.num_edges == 1
        assert g.num_nonzeros == 2

    def test_weight_accumulates(self):
        g = Graph(2)
        g.add_edge(0, 1, 0.5)
        g.add_edge(1, 0, 0.25)
        assert g.weight(0, 1) == 0.75
        assert g.num_edges == 1
        assert g.total_weight == 0.75

    def test_self_loop_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(1, 1)
        with pytest.raises(GraphError, match="self-loop on vertex 1"):
            Graph.from_edges(3, [0, 1], [2, 1], [1.0, 1.0])

    def test_nonpositive_weight_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, 0.0)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, -2.0)
        for bad in (0.0, -2.0):
            with pytest.raises(GraphError, match="must be positive"):
                Graph.from_edges(3, [0, 1], [1, 2], [1.0, bad])

    def test_out_of_range_vertex(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 5)
        for a, b in ((0, 5), (-1, 1)):
            with pytest.raises(GraphError, match="out of range"):
                Graph.from_edges(2, [a], [b], [1.0])

    def test_repeated_pair_rejected_in_bulk(self):
        # from_edges does not accumulate weights as add_edge does.
        for a, b in (([0, 0], [1, 1]), ([0, 1], [1, 0])):
            with pytest.raises(GraphError, match="more than once"):
                Graph.from_edges(3, a + [1], b + [2], [1.0, 2.0, 3.0])


class TestAccessors:
    @pytest.fixture
    def triangle(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(0, 2, 3.0)
        return g

    def test_degree(self, triangle):
        assert triangle.degree(0) == 4.0
        assert triangle.degree(1) == 3.0

    def test_degrees_list(self, triangle):
        assert triangle.degrees() == [4.0, 3.0, 5.0]

    def test_unweighted_degree(self, triangle):
        assert triangle.unweighted_degree(0) == 2

    def test_neighbors(self, triangle):
        assert sorted(triangle.neighbors(1)) == [0, 2]

    def test_neighbor_weights(self, triangle):
        assert dict(triangle.neighbor_weights(0)) == {1: 1.0, 2: 3.0}

    def test_edges_iteration(self, triangle):
        edges = sorted(triangle.edges())
        assert edges == [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]

    def test_weight_absent_edge_is_zero(self):
        g = Graph(3)
        assert g.weight(0, 1) == 0.0


class TestSubgraph:
    def test_induced_subgraph(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        sub, vertex_map = g.induced_subgraph([1, 2, 3])
        assert vertex_map == [1, 2, 3]
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert sub.has_edge(0, 1)  # old (1,2)
        assert sub.has_edge(1, 2)  # old (2,3)

    def test_induced_subgraph_weights(self):
        g = Graph(3)
        g.add_edge(0, 2, 2.5)
        sub, _ = g.induced_subgraph([0, 2])
        assert sub.weight(0, 1) == 2.5

    def test_induced_subgraph_bad_vertex(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.induced_subgraph([0, 5])
