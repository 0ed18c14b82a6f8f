"""Tests for graph-spectra utilities and Cheeger's inequality."""

import itertools

import numpy as np
import pytest

from repro.errors import SpectralError
from repro.analysis import (
    cheeger_bounds,
    conductance,
    normalized_fiedler_value,
    normalized_laplacian,
    sweep_conductance,
)
from tests.conftest import connected_random_graph, graph_of


def complete_graph(n):
    return graph_of(n, itertools.combinations(range(n), 2))


def two_joined_triangles():
    return graph_of(6, [
        edge
        for base in (0, 3)
        for edge in ((base, base + 1), (base + 1, base + 2), (base, base + 2))
    ] + [(2, 3)])


def three_tiny_weight_edges():
    """Edges 0-3, 1-4, 2-5 of weights 1.0, 1e-16, 1e-16: each side's
    volume adds up 1.0 + 1e-16 + 1e-16, which is 1.0 left to right and
    1.0000000000000002 by builtin ``sum()`` from Python 3.12."""
    return graph_of(6, [(0, 3, 1.0), (1, 4, 1e-16), (2, 5, 1e-16)])


def true_conductance(g):
    """Exhaustive minimum conductance (tiny graphs only)."""
    n = g.num_vertices
    best = float("inf")
    for mask in range(1, 2 ** (n - 1)):
        subset = [v for v in range(n) if (mask >> v) & 1 or v == 0]
        # force vertex 0 into the subset via the mask trick:
        subset = sorted(set(subset))
        if len(subset) in (0, n):
            continue
        best = min(best, conductance(g, subset))
    return best


class TestConductance:
    def test_hand_computed(self):
        # Two triangles joined by one edge: cutting between them:
        # cut=1, vol per side=7 -> h = 1/7.
        g = two_joined_triangles()
        assert conductance(g, [0, 1, 2]) == pytest.approx(1 / 7)

    def test_symmetric_in_complement(self):
        g = connected_random_graph(1, num_vertices=10)
        subset = [0, 2, 4, 6]
        complement = [v for v in range(10) if v not in subset]
        assert conductance(g, subset) == pytest.approx(
            conductance(g, complement)
        )

    def test_volumes_sum_left_to_right(self):
        # cut 1.0 over volumes 1.0 and 2.0 - 1.0 (compensated sums
        # would give 1.0 / 1.0000000000000002).
        assert conductance(three_tiny_weight_edges(), [0, 1, 2]) == 1.0

    def test_improper_subsets_rejected(self):
        g = complete_graph(4)
        with pytest.raises(SpectralError):
            conductance(g, [])
        with pytest.raises(SpectralError):
            conductance(g, [0, 1, 2, 3])


class TestNormalizedLaplacian:
    def test_spectrum_in_unit_interval(self):
        g = connected_random_graph(3, num_vertices=12)
        values = np.linalg.eigvalsh(normalized_laplacian(g).toarray())
        assert values.min() > -1e-9
        assert values.max() < 2.0 + 1e-9
        assert abs(values[0]) < 1e-9  # smallest is 0

    def test_complete_graph_value(self):
        # K_n: normalised lambda_2 = n/(n-1).
        n = 6
        assert normalized_fiedler_value(complete_graph(n)) == (
            pytest.approx(n / (n - 1))
        )

    def test_disconnected_rejected(self):
        g = graph_of(4, [(0, 1), (2, 3)])
        with pytest.raises(SpectralError):
            normalized_fiedler_value(g)


class TestCheeger:
    @pytest.mark.parametrize("seed", range(6))
    def test_inequality_on_random_graphs(self, seed):
        g = connected_random_graph(seed, num_vertices=8, extra_edges=4)
        bounds = cheeger_bounds(g)
        h = true_conductance(g)
        assert bounds.contains(h), (
            f"h={h} outside [{bounds.lower}, {bounds.upper}]"
        )

    def test_barbell_small_gap(self):
        # A graph with an obvious bottleneck has tiny lambda_2 and tiny
        # conductance; a complete graph has both large.
        g = graph_of(8, [
            (base + i, base + j)
            for base in (0, 4)
            for i, j in itertools.combinations(range(4), 2)
        ] + [(3, 4)])
        assert cheeger_bounds(g).lambda_2 < (
            cheeger_bounds(complete_graph(8)).lambda_2 / 4
        )


class TestSweep:
    def test_sweep_respects_cheeger_upper_bound(self):
        """The constructive half: sweeping the sorted normalised Fiedler
        vector finds a prefix with h <= sqrt(2 lambda_2)."""
        for seed in range(5):
            g = connected_random_graph(
                seed + 10, num_vertices=14, extra_edges=8
            )
            laplacian = normalized_laplacian(g).toarray()
            _, vectors = np.linalg.eigh(laplacian)
            fiedler = vectors[:, 1]
            degrees = np.asarray(g.degrees())
            embedding = fiedler / np.sqrt(degrees)
            order = list(np.argsort(embedding))
            best = sweep_conductance(g, [int(v) for v in order])
            bounds = cheeger_bounds(g)
            assert best <= bounds.upper + 1e-9
            assert best >= bounds.lower - 1e-9

    def test_sweep_finds_bottleneck(self):
        g = two_joined_triangles()
        best = sweep_conductance(g, [0, 1, 2, 3, 4, 5])
        assert best == pytest.approx(1 / 7)

    def test_total_volume_sums_left_to_right(self):
        # Left to right the total volume is 2.0, so the prefix {0..3}
        # (volume 2.0, cut 0.0) has an empty complement and is skipped;
        # a compensated total, 2.0000000000000004, would score it 0.0.
        order = [0, 1, 2, 3, 4, 5]
        assert sweep_conductance(three_tiny_weight_edges(), order) == 1.0

    def test_bad_order_rejected(self):
        g = complete_graph(4)
        with pytest.raises(SpectralError):
            sweep_conductance(g, [0, 0, 1, 2])
