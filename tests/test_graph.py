"""Tests for the Graph substrate."""

import math
import struct

import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings

from repro.errors import GraphError
from repro.graph import Graph, from_networkx, from_scipy_sparse
from tests.conftest import graph_of
from tests.oracles import DictGraph
from tests.strategies import edge_lists


def bit_rows(g):
    return [
        [(u, struct.pack("<d", w)) for u, w in g.neighbor_weights(v)]
        for v in range(g.num_vertices)
    ]


class TestConstruction:
    def test_empty(self):
        g = graph_of(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.degrees() == []

    def test_negative_size_rejected(self):
        with pytest.raises(GraphError):
            graph_of(-1, [])

    def test_add_edge(self):
        g = graph_of(3, [(0, 2, 1.5)])
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 0)
        assert g.weight(0, 2) == 1.5
        assert g.num_edges == 1
        assert g.num_nonzeros == 2

    def test_weight_accumulates(self):
        g = graph_of(2, [(0, 1, 0.5), (1, 0, 0.25)])
        assert g.weight(0, 1) == 0.75
        assert g.num_edges == 1
        assert g.total_weight == 0.75

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop on vertex 1"):
            Graph.from_edges(3, [0, 1], [2, 1], [1.0, 1.0])

    def test_nonpositive_weight_rejected(self):
        for bad in (0.0, -2.0):
            with pytest.raises(GraphError, match="must be positive"):
                Graph.from_edges(3, [0, 1], [1, 2], [1.0, bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build", ["from_edges", "from_scipy_sparse", "from_networkx"]
    )
    def test_nonfinite_weight_rejected(self, build, bad):
        if build == "from_edges":
            with pytest.raises(GraphError, match="positive and finite"):
                Graph.from_edges(3, [0, 1], [1, 2], [1.0, bad])
        elif build == "from_scipy_sparse":
            matrix = sp.lil_matrix((20, 20))
            matrix[0, 1] = matrix[1, 0] = 1.0
            matrix[3, 7] = matrix[7, 3] = bad
            with pytest.raises(GraphError):
                from_scipy_sparse(matrix.tocsr())
            matrix[3, 7] = 1.0  # only the lower entry is bad
            with pytest.raises(GraphError):
                from_scipy_sparse(matrix.tocsr())
        else:
            import networkx as nx

            nxg = nx.Graph()
            nxg.add_edge(0, 1, weight=1.0)
            nxg.add_edge(1, 2, weight=bad)
            with pytest.raises(GraphError, match="positive and finite"):
                from_networkx(nxg)

    def test_out_of_range_vertex(self):
        for a, b in ((0, 5), (-1, 1)):
            with pytest.raises(GraphError, match="out of range"):
                Graph.from_edges(2, [a], [b], [1.0])
        with pytest.raises(GraphError, match="out of range"):
            graph_of(2, [(0, 1)]).weight(0, 5)

    def test_edge_arrays_must_match(self):
        with pytest.raises(GraphError, match="differ in shape"):
            Graph.from_edges(3, [0, 1], [1], [1.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    # One pair given 50 times, both ways round: a long run of equal keys.
    @example((3, [(0, 1, 1 / 3), (1, 0, 1e-16)] * 25 + [(2, 1, 0.1)]))
    # Rows of 13 distinct lengths, each pair repeated reversed.
    @example((14, [e for v in range(14) for u in range(v)
                   for e in ((u, v, 1 / 7), (v, u, 1e8))]))
    @example((3, []))
    def test_repeated_pairs_equal_the_dict_twin(self, case):
        """Row order, weights, edge count and total weight equal a dict
        graph's whose ``add_edge`` accumulated the same list in order."""
        n, edges = case
        twin = DictGraph(n)
        for u, v, w in edges:
            twin.add_edge(u, v, w)
        g = graph_of(n, edges)
        assert bit_rows(g) == bit_rows(twin)
        assert g.num_edges == twin.num_edges
        assert struct.pack("<d", g.total_weight) == struct.pack(
            "<d", twin.total_weight
        )


class TestAccessors:
    @pytest.fixture
    def triangle(self):
        return graph_of(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])

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
        g = graph_of(3, [])
        assert g.weight(0, 1) == 0.0

    def test_degree_sums_left_to_right(self):
        # A compensated sum (builtin sum() from Python 3.12) would give
        # 1.0000000000000002 here.
        g = graph_of(4, [(0, 1, 1.0), (0, 2, 1e-16), (0, 3, 1e-16)])
        assert g.degree(0) == g.degrees()[0] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(edge_lists(max_vertices=4, max_edges=40))
    def test_degrees_are_the_stored_rows_summed_in_order(self, case):
        """Bit for bit a left-to-right ``s += x`` over each stored row,
        so no platform's summation changes a degree."""
        n, edges = case
        g = graph_of(n, edges)
        degrees = g.degrees()
        for v in range(n):
            s = 0.0
            for _, x in g.neighbor_weights(v):
                s += x
            assert struct.pack("<d", degrees[v]) == struct.pack("<d", s)
            assert struct.pack("<d", g.degree(v)) == struct.pack("<d", s)


class TestSubgraph:
    def test_induced_subgraph(self):
        g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
        sub, vertex_map = g.induced_subgraph([1, 2, 3])
        assert vertex_map == [1, 2, 3]
        assert sub.num_vertices == 3
        assert sub.num_edges == 2
        assert sub.has_edge(0, 1)  # old (1,2)
        assert sub.has_edge(1, 2)  # old (2,3)

    def test_induced_subgraph_weights(self):
        g = graph_of(3, [(0, 2, 2.5)])
        sub, _ = g.induced_subgraph([0, 2])
        assert sub.weight(0, 1) == 2.5

    def test_induced_subgraph_bad_vertex(self):
        g = graph_of(2, [])
        with pytest.raises(GraphError):
            g.induced_subgraph([0, 5])
