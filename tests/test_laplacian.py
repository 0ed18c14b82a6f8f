"""Tests for matrix assembly (A, D, Q = D - A)."""

import numpy as np
import pytest

from repro.graph import adjacency_matrix, degree_matrix, laplacian_matrix
from tests.conftest import graph_of


@pytest.fixture
def path_graph():
    return graph_of(3, [(0, 1, 2.0), (1, 2, 3.0)])


class TestAdjacency:
    def test_entries(self, path_graph):
        a = adjacency_matrix(path_graph).toarray()
        expected = np.array(
            [[0, 2, 0], [2, 0, 3], [0, 3, 0]], dtype=float
        )
        assert np.allclose(a, expected)

    def test_symmetric(self, path_graph):
        a = adjacency_matrix(path_graph)
        assert (abs(a - a.T)).max() == 0

    def test_zero_diagonal(self, path_graph):
        a = adjacency_matrix(path_graph).toarray()
        assert np.all(np.diag(a) == 0)

    def test_nonzero_count(self, path_graph):
        assert adjacency_matrix(path_graph).nnz == path_graph.num_nonzeros


class TestDegree:
    def test_diagonal(self, path_graph):
        d = degree_matrix(path_graph).toarray()
        assert np.allclose(np.diag(d), [2.0, 5.0, 3.0])
        assert np.allclose(d - np.diag(np.diag(d)), 0)


class TestLaplacian:
    def test_rows_sum_to_zero(self, path_graph):
        q = laplacian_matrix(path_graph).toarray()
        assert np.allclose(q.sum(axis=1), 0)

    def test_positive_semidefinite(self, path_graph):
        q = laplacian_matrix(path_graph).toarray()
        eigenvalues = np.linalg.eigvalsh(q)
        assert eigenvalues.min() > -1e-12

    def test_constant_vector_in_kernel(self, path_graph):
        q = laplacian_matrix(path_graph).toarray()
        ones = np.ones(3)
        assert np.allclose(q @ ones, 0)

    def test_quadratic_form_is_cut_energy(self, path_graph):
        # x^T Q x = sum w_ij (x_i - x_j)^2 over edges
        q = laplacian_matrix(path_graph).toarray()
        x = np.array([1.0, -1.0, 2.0])
        expected = 2.0 * (1 - -1) ** 2 + 3.0 * (-1 - 2) ** 2
        assert np.isclose(x @ q @ x, expected)
