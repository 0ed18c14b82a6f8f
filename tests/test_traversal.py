"""Tests for graph traversal utilities."""

import time

import pytest
from hypothesis import example, given, settings

from repro.errors import GraphError
from repro.graph import (
    approximate_diameter,
    bfs_distances,
    bfs_order,
    connected_components,
    eccentricity,
    is_connected,
)
from tests.conftest import connected_random_graph, graph_of
from tests.oracles import reference_connected_components
from tests.strategies import edge_lists

PATH4 = [(0, 1), (1, 2), (2, 3)]


@pytest.fixture
def two_triangles():
    """Vertices 0-2 and 3-5 form two disjoint triangles."""
    return graph_of(6, [
        edge
        for base in (0, 3)
        for edge in ((base, base + 1), (base + 1, base + 2), (base, base + 2))
    ])


class TestBfs:
    def test_order_starts_at_source(self, two_triangles):
        order = bfs_order(two_triangles, 0)
        assert order[0] == 0
        assert sorted(order) == [0, 1, 2]

    def test_distances(self):
        assert bfs_distances(graph_of(4, PATH4), 0) == [0, 1, 2, 3]

    def test_unreachable_is_none(self, two_triangles):
        dist = bfs_distances(two_triangles, 0)
        assert dist[4] is None


class TestComponents:
    def test_two_components(self, two_triangles):
        comps = connected_components(two_triangles)
        assert comps == [[0, 1, 2], [3, 4, 5]]

    def test_isolated_vertices_are_singletons(self):
        g = graph_of(3, [(0, 1)])
        assert connected_components(g) == [[0, 1], [2]]

    @settings(max_examples=200, deadline=None)
    @given(edge_lists(min_vertices=0, max_vertices=12, max_edges=12))
    # A path whose smallest vertex sits at one end, the far end first.
    @example((40, [(v, v - 1, 1.0) for v in range(39, 0, -1)]))
    # Two zigzag paths, 0-19-1-18-... and 20-39-21-38-...
    @example((40, [(e[0] + base, e[1] + base, 1.0) for base in (0, 20)
                   for v in range(10) for e in ((v, 19 - v), (19 - v, v + 1))
                   if e[0] != e[1]]))
    # The path 0-39-38-...-1, where every label points away from 0.
    @example((40, [(0, 39, 1.0)]
              + [(v, v - 1, 1.0) for v in range(39, 1, -1)]))
    @example((0, []))
    def test_equal_the_bfs_twin(self, case):
        """The same sorted lists, in the same order, of Python ints, as
        one BFS per component; isolated vertices and several components
        included."""
        n, edges = case
        g = graph_of(n, edges)
        comps = connected_components(g)
        assert comps == reference_connected_components(g)
        assert all(type(v) is int for comp in comps for v in comp)

    def test_long_path_is_as_quick_as_the_bfs_twin(self):
        """On the path 0-7999-7998-...-1 the smallest label could
        creep one hop per round (hundreds of times the twin's time);
        hooking settles it in a few rounds."""
        n = 8000
        g = graph_of(
            n, [(0, n - 1)] + [(v, v - 1) for v in range(n - 1, 1, -1)]
        )

        def best(fn):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                fn(g)
                times.append(time.perf_counter() - start)
            return min(times)

        assert connected_components(g) == [list(range(n))]
        assert best(connected_components) < 10 * best(
            reference_connected_components
        )

    def test_is_connected(self, two_triangles):
        assert not is_connected(two_triangles)
        assert is_connected(graph_of(0, []))
        assert is_connected(graph_of(2, [(0, 1)]))

    def test_random_connected_graphs(self):
        for seed in range(5):
            g = connected_random_graph(seed, num_vertices=15)
            assert is_connected(g)


class TestDiameter:
    def test_path_eccentricity(self):
        g = graph_of(4, PATH4)
        assert eccentricity(g, 0) == 3
        assert eccentricity(g, 1) == 2

    def test_path_diameter_exact(self):
        g = graph_of(5, [(i, i + 1) for i in range(4)])
        assert approximate_diameter(g) == 4

    def test_cycle_diameter(self):
        g = graph_of(6, [(i, (i + 1) % 6) for i in range(6)])
        # true diameter 3; double sweep gives >= 2 and <= 3
        assert 2 <= approximate_diameter(g) <= 3

    def test_empty_graph(self):
        assert approximate_diameter(graph_of(0, [])) == 0


class TestStartVertex:
    @pytest.mark.parametrize("search", [bfs_order, bfs_distances, eccentricity])
    @pytest.mark.parametrize("start", [-1, 4])
    def test_out_of_range_start_rejected(self, search, start):
        # -1 would otherwise search from the last vertex.
        with pytest.raises(GraphError, match="out of range"):
            search(graph_of(4, PATH4), start)
