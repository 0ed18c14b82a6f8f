"""Tests for Fiedler vectors and the disconnected-graph handling."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.bench import build_circuit
from repro.errors import SpectralError
from repro.graph import laplacian_matrix
from repro.intersection import intersection_graph
from repro.spectral import component_spectral_values, fiedler_vector
from repro.spectral.fiedler import _canonical_sign, _shifted_laplacian
from tests.conftest import connected_random_graph, graph_of


def path_graph(n):
    return graph_of(n, [(i, i + 1) for i in range(n - 1)])


class TestFiedlerVector:
    def test_path_known_eigenvalue(self):
        # Path P_n: lambda_2 = 2(1 - cos(pi/n)).
        n = 8
        result = fiedler_vector(path_graph(n))
        expected = 2 * (1 - np.cos(np.pi / n))
        assert result.eigenvalue == pytest.approx(expected, abs=1e-8)

    def test_path_vector_monotone(self):
        # The Fiedler vector of a path is monotone along it.
        result = fiedler_vector(path_graph(9))
        diffs = np.diff(result.vector)
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_orthogonal_to_constant(self):
        g = connected_random_graph(4, num_vertices=15)
        result = fiedler_vector(g)
        assert abs(result.vector.sum()) < 1e-7

    def test_eigen_equation(self):
        g = connected_random_graph(8, num_vertices=15)
        result = fiedler_vector(g)
        q = laplacian_matrix(g).toarray()
        residual = q @ result.vector - result.eigenvalue * result.vector
        assert np.linalg.norm(residual) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_eigsh_matches_dense_eigh(self, seed):
        # Above 16 vertices the pair comes from eigsh; the dense
        # solve used for small graphs is the exact reference.
        g = connected_random_graph(seed, num_vertices=40, extra_edges=30)
        result = fiedler_vector(g)
        values, vectors = np.linalg.eigh(laplacian_matrix(g).toarray())
        assert result.eigenvalue == pytest.approx(values[1], abs=1e-10)
        dot = abs(np.dot(result.vector, vectors[:, 1]))
        assert dot == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "g",
        [
            connected_random_graph(5, num_vertices=60, extra_edges=40),
            intersection_graph(build_circuit("Prim2", scale=0.1), "paper"),
        ],
        ids=["random", "Prim2"],
    )
    def test_counting_operator_keeps_eigsh_bits(self, g):
        """eigsh runs on an operator that counts its matvecs; the pair
        must be, bit for bit, what eigsh gives on the bare matrix."""
        shifted, shift = _shifted_laplacian(g)
        v0 = np.random.default_rng(0).standard_normal(g.num_vertices)
        mu, vecs = spla.eigsh(shifted, k=2, which="LA", tol=0.0, v0=v0)
        i = int(np.argsort(mu)[0])
        result = fiedler_vector(g, seed=0)
        assert result.vector.tobytes() == _canonical_sign(
            vecs[:, i]
        ).tobytes()
        assert result.eigenvalue == float(shift - mu[i])

    def test_deterministic(self):
        g = connected_random_graph(3, num_vertices=25)
        a = fiedler_vector(g, seed=5)
        b = fiedler_vector(g, seed=5)
        assert np.array_equal(a.vector, b.vector)

    def test_complete_graph_eigenvalue(self):
        n = 7
        g = graph_of(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        result = fiedler_vector(g)
        assert result.eigenvalue == pytest.approx(n, abs=1e-8)

    def test_ratio_cut_lower_bound_property(self):
        g = connected_random_graph(10, num_vertices=12)
        result = fiedler_vector(g)
        assert result.ratio_cut_lower_bound() == pytest.approx(
            result.eigenvalue / 12
        )


class TestFiedlerValidation:
    def test_too_small(self):
        with pytest.raises(SpectralError):
            fiedler_vector(graph_of(1, []))

    def test_disconnected_rejected(self):
        g = graph_of(4, [(0, 1), (2, 3)])
        with pytest.raises(SpectralError):
            fiedler_vector(g)


class TestComponentValues:
    def test_connected_graph_matches_ordering(self):
        g = path_graph(10)
        values = component_spectral_values(g)
        order = np.argsort(values)
        # A path's spectral order is the path order (or its reverse).
        assert list(order) in ([*range(10)], [*reversed(range(10))])

    def test_components_get_disjoint_ranges(self):
        g = graph_of(
            8, [(base + i, base + i + 1) for base in (0, 4) for i in range(3)]
        )
        values = component_spectral_values(g)
        first = values[:4]
        second = values[4:]
        assert max(first) < min(second) or max(second) < min(first)

    def test_singleton_components(self):
        g = graph_of(3, [(0, 1)])
        values = component_spectral_values(g)
        assert len(set(values)) == 3

    def test_empty_graph(self):
        assert component_spectral_values(graph_of(0, [])).size == 0

    def test_two_vertex_component(self):
        g = graph_of(2, [(0, 1)])
        values = component_spectral_values(g)
        assert values[0] != values[1]
