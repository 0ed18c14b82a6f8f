"""Tests for partition metrics."""

import pytest

from repro.errors import PartitionError
from repro.hypergraph import Hypergraph
from repro.partitioning import (
    balance_ratio,
    cut_net_indices,
    graph_edge_cut,
    is_bisection,
    net_cut_count,
    ratio_cut_cost,
    ratio_cut_of_sides,
    weighted_net_cut,
)
from tests.conftest import graph_of


class TestNetCut:
    def test_cut_indices(self, tiny_hypergraph):
        assert cut_net_indices(tiny_hypergraph, [0, 0, 1, 1]) == [1, 2]
        assert cut_net_indices(tiny_hypergraph, [0, 0, 0, 0]) == []

    def test_empty_net_never_cut(self):
        h = Hypergraph([[], [0, 1]], num_modules=2)
        assert cut_net_indices(h, [0, 1]) == [1]

    def test_single_pin_never_cut(self):
        h = Hypergraph([[0], [0, 1]])
        assert cut_net_indices(h, [0, 1]) == [1]

    def test_count(self, tiny_hypergraph):
        assert net_cut_count(tiny_hypergraph, [0, 1, 0, 1]) == 3

    def test_length_mismatch(self, tiny_hypergraph):
        with pytest.raises(PartitionError):
            net_cut_count(tiny_hypergraph, [0, 1])


class TestRatioCut:
    def test_basic(self):
        assert ratio_cut_cost(6, 2, 3) == pytest.approx(1.0)

    def test_empty_side_infinite(self):
        assert ratio_cut_cost(0, 0, 5) == float("inf")
        assert ratio_cut_cost(3, 5, 0) == float("inf")

    def test_of_sides(self, tiny_hypergraph):
        assert ratio_cut_of_sides(tiny_hypergraph, [0, 0, 1, 1]) == (
            pytest.approx(0.5)
        )

    def test_paper_bm1_arithmetic(self):
        # Table 2: bm1, 1 net cut, areas 9:873 => 12.73e-5.
        assert ratio_cut_cost(1, 9, 873) == pytest.approx(12.73e-5, rel=1e-3)
        # IG-Match row: 21:861 => 5.53e-5.
        assert ratio_cut_cost(1, 21, 861) == pytest.approx(5.53e-5, rel=1e-3)


class TestGraphCut:
    def test_weighted_cut(self):
        g = graph_of(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 5.0)])
        assert graph_edge_cut(g, [0, 0, 1, 1]) == 3.0
        assert graph_edge_cut(g, [0, 1, 0, 1]) == 10.0

    def test_length_mismatch(self):
        g = graph_of(2, [])
        with pytest.raises(PartitionError):
            graph_edge_cut(g, [0])


class TestSumsLeftToRight:
    """Cut weights add up left to right, the same on every interpreter;
    builtin ``sum()`` compensates its rounding from Python 3.12 and
    would give 1.0000000000000002 for 1.0 + 1e-16 + 1e-16."""

    def test_graph_edge_cut(self):
        g = graph_of(4, [(0, 1, 1.0), (0, 2, 1e-16), (0, 3, 1e-16)])
        assert graph_edge_cut(g, [0, 1, 1, 1]) == 1.0

    def test_weighted_net_cut(self):
        h = Hypergraph(
            [[0, 1], [0, 2], [0, 3]], net_weights=[1.0, 1e-16, 1e-16]
        )
        assert weighted_net_cut(h, [0, 1, 1, 1]) == 1.0


class TestBalance:
    def test_balance_ratio(self):
        assert balance_ratio([0, 0, 1, 1]) == 0.5
        assert balance_ratio([0, 1, 1, 1]) == 0.25
        assert balance_ratio([]) == 0.0

    def test_is_bisection(self):
        assert is_bisection([0, 1, 0, 1])
        assert is_bisection([0, 1, 1])
        assert not is_bisection([0, 1, 1, 1])
