"""Tests for the spectral bisection-width lower bound."""

import pytest

from repro.analysis import bisection_width_lower_bound
from tests.conftest import connected_random_graph, graph_of


class TestBisectionBound:
    def test_holds_against_exact_bisection(self):
        import itertools

        from repro.partitioning.metrics import graph_edge_cut

        for seed in range(5):
            g = connected_random_graph(seed, num_vertices=10)
            bound = bisection_width_lower_bound(g)
            best = float("inf")
            for combo in itertools.combinations(range(10), 5):
                sides = [0 if v in combo else 1 for v in range(10)]
                best = min(best, graph_edge_cut(g, sides))
            assert best >= bound - 1e-9

    def test_tight_on_complete_graph(self):
        import itertools

        n = 6
        g = graph_of(n, itertools.combinations(range(n), 2))
        # K_n: lambda_2 = n, bound = n^2/4 = 9 = actual bisection cut.
        assert bisection_width_lower_bound(g) == pytest.approx(9.0)
