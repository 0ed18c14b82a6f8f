"""Tests for Hall's quadratic placement (Appendix A)."""

import numpy as np
import pytest

from repro.errors import SpectralError
from repro.spectral import hall_placement, quadratic_wirelength
from tests.conftest import connected_random_graph, graph_of


class TestWirelength:
    def test_hand_computed(self):
        g = graph_of(3, [(0, 1, 2.0), (1, 2, 1.0)])
        x = np.array([0.0, 1.0, 3.0])
        assert quadratic_wirelength(g, x) == pytest.approx(2 * 1 + 1 * 4)

    def test_constant_vector_is_free(self):
        g = connected_random_graph(0, num_vertices=10)
        assert quadratic_wirelength(g, np.ones(10)) == pytest.approx(0.0)

    def test_shape_mismatch(self):
        g = graph_of(3, [])
        with pytest.raises(SpectralError):
            quadratic_wirelength(g, np.zeros(5))


class TestPlacement:
    def test_coordinates_shape(self):
        g = connected_random_graph(1, num_vertices=12)
        placement = hall_placement(g, dimensions=2)
        assert placement.coordinates.shape == (12, 2)
        assert placement.dimensions == 2

    def test_eigenvalue_equals_wirelength(self):
        # Hall: the d-th eigenvalue equals the wirelength of the d-th
        # coordinate vector (unit norm).
        g = connected_random_graph(2, num_vertices=14)
        placement = hall_placement(g, dimensions=2)
        for d in range(2):
            x = placement.coordinates[:, d]
            assert quadratic_wirelength(g, x) == pytest.approx(
                placement.eigenvalues[d], abs=1e-6
            )

    def test_eigenvalues_sorted_nontrivial(self):
        g = connected_random_graph(5, num_vertices=16)
        placement = hall_placement(g, dimensions=3)
        assert placement.eigenvalues[0] > 1e-9
        assert np.all(np.diff(placement.eigenvalues) >= -1e-9)

    def test_optimality_vs_random_unit_vectors(self):
        # No unit vector orthogonal to the constant does better than the
        # Fiedler coordinate.
        g = connected_random_graph(9, num_vertices=12)
        placement = hall_placement(g, dimensions=1)
        best = placement.eigenvalues[0]
        rng = np.random.default_rng(0)
        for _ in range(25):
            x = rng.standard_normal(12)
            x -= x.mean()
            x /= np.linalg.norm(x)
            assert quadratic_wirelength(g, x) >= best - 1e-9

    def test_two_clusters_separate_in_1d(self, two_cluster_hypergraph):
        from repro.netmodels import get_model

        g = get_model("clique").to_graph(two_cluster_hypergraph)
        placement = hall_placement(g, dimensions=1)
        x = placement.coordinates[:, 0]
        group_a = x[:4]
        group_b = x[4:]
        assert max(group_a) < min(group_b) or max(group_b) < min(group_a)

    def test_disconnected_rejected(self):
        g = graph_of(6, [(0, 1), (2, 3), (4, 5)])
        with pytest.raises(SpectralError):
            hall_placement(g, dimensions=1)

    def test_too_few_vertices(self):
        g = graph_of(3, [(0, 1), (1, 2)])
        with pytest.raises(SpectralError):
            hall_placement(g, dimensions=2)

    def test_bad_dimensions(self):
        g = connected_random_graph(0, num_vertices=8)
        with pytest.raises(SpectralError):
            hall_placement(g, dimensions=0)

    def test_large_graph_sparse_path(self):
        g = connected_random_graph(13, num_vertices=60, extra_edges=80)
        placement = hall_placement(g, dimensions=2)
        assert placement.coordinates.shape == (60, 2)
        x = placement.coordinates[:, 0]
        assert quadratic_wirelength(g, x) == pytest.approx(
            placement.eigenvalues[0], rel=1e-4
        )
