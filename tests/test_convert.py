"""Tests for graph conversions (scipy sparse, networkx)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError
from repro.graph import (
    adjacency_matrix,
    from_networkx,
    from_scipy_sparse,
    to_networkx,
)
from tests.conftest import graph_of


class TestScipy:
    def test_roundtrip(self):
        g = graph_of(3, [(0, 1, 2.0), (1, 2, 0.5)])
        back = from_scipy_sparse(adjacency_matrix(g))
        assert back.num_edges == 2
        assert back.weight(0, 1) == 2.0
        assert back.weight(1, 2) == 0.5

    def test_diagonal_ignored(self):
        m = sp.csr_matrix(np.array([[5.0, 1.0], [1.0, 5.0]]))
        g = from_scipy_sparse(m)
        assert g.num_edges == 1
        assert g.weight(0, 1) == 1.0

    def test_asymmetric_rejected(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(GraphError):
            from_scipy_sparse(m)

    def test_non_square_rejected(self):
        m = sp.csr_matrix(np.ones((2, 3)))
        with pytest.raises(GraphError):
            from_scipy_sparse(m)


class TestNetworkx:
    def test_roundtrip(self):
        g = graph_of(4, [(0, 1, 1.5), (2, 3, 1.0)])
        nxg = to_networkx(g)
        assert nxg.number_of_nodes() == 4
        assert nxg[0][1]["weight"] == 1.5
        back = from_networkx(nxg)
        assert back.weight(0, 1) == 1.5
        assert back.weight(2, 3) == 1.0

    def test_missing_weight_defaults(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from([0, 1])
        nxg.add_edge(0, 1)
        assert from_networkx(nxg).weight(0, 1) == 1.0

    def test_bad_labels_rejected(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_edge("a", "b")
        with pytest.raises(GraphError):
            from_networkx(nxg)
