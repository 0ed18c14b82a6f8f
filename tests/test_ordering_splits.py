"""Tests for spectral orderings and the module split sweep."""

import numpy as np
import pytest

from repro import obs
from repro.errors import PartitionError, SpectralError
from repro.hypergraph import Hypergraph
from repro.netmodels import get_model
from repro.partitioning.metrics import net_cut_count
from repro.spectral import (
    ordering_from_values,
    spectral_ordering,
    sweep_module_splits,
)
from tests.conftest import connected_random_graph, graph_of


class TestOrderingFromValues:
    def test_sorted_ascending(self):
        assert ordering_from_values([3.0, 1.0, 2.0]) == [1, 2, 0]

    def test_ties_broken_by_index(self):
        assert ordering_from_values([1.0, 0.0, 0.0]) == [1, 2, 0]

    def test_rejects_matrix(self):
        with pytest.raises(SpectralError):
            ordering_from_values(np.zeros((2, 2)))


class TestSpectralOrdering:
    def test_is_permutation(self, small_circuit):
        g = get_model("clique").to_graph(small_circuit)
        order = spectral_ordering(g)
        assert sorted(order) == list(range(g.num_vertices))

    def test_two_clusters_separate(self, two_cluster_hypergraph):
        g = get_model("clique").to_graph(two_cluster_hypergraph)
        order = spectral_ordering(g)
        first_half = set(order[:4])
        assert first_half in ({0, 1, 2, 3}, {4, 5, 6, 7})

    def test_tiny_graphs(self):
        assert spectral_ordering(graph_of(0, [])) == []
        assert spectral_ordering(graph_of(1, [])) == [0]
        assert spectral_ordering(graph_of(2, [])) == [0, 1]

    def test_disconnected_handled(self):
        g = graph_of(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        order = spectral_ordering(g)
        assert sorted(order) == list(range(6))
        # components stay contiguous
        positions = {v: i for i, v in enumerate(order)}
        first = sorted(positions[v] for v in (0, 1, 2))
        assert first in ([0, 1, 2], [3, 4, 5])

    def test_deterministic(self, small_circuit):
        g = get_model("clique").to_graph(small_circuit)
        assert spectral_ordering(g, seed=3) == spectral_ordering(g, seed=3)


def _lanczos_iterations(g, tol):
    with obs.isolated() as state:
        obs.enable()
        try:
            spectral_ordering(g, tol=tol)
        finally:
            obs.disable()
    return state.counters["lanczos.iterations"]


class TestRelaxedTolerance:
    def test_ordering_tolerance_plumbed(self):
        g = connected_random_graph(4, num_vertices=40, extra_edges=40)
        tight = spectral_ordering(g, tol=1e-10)
        loose = spectral_ordering(g, tol=1e-2)
        assert sorted(tight) == sorted(loose)
        # A loose ordering may differ in detail but must still separate
        # the graph like the tight one (the sign may flip).
        position_tight = {v: i for i, v in enumerate(tight)}
        position_loose = {v: i for i, v in enumerate(loose)}
        xs = [position_tight[v] for v in range(40)]
        ys = [position_loose[v] for v in range(40)]
        assert abs(np.corrcoef(xs, ys)[0, 1]) > 0.5

    def test_loose_tolerance_takes_fewer_iterations(self):
        g = connected_random_graph(4, num_vertices=40, extra_edges=40)
        assert _lanczos_iterations(g, 1e-2) < _lanczos_iterations(g, 0.0)


class TestSweep:
    def test_cut_counts_match_direct_evaluation(self, tiny_hypergraph):
        order = [0, 1, 2, 3]
        sweep = sweep_module_splits(tiny_hypergraph, order)
        for point in sweep.points:
            sides = [
                0 if order.index(v) < point.rank else 1
                for v in range(4)
            ]
            assert point.nets_cut == net_cut_count(tiny_hypergraph, sides)

    def test_ratio_denominator(self, tiny_hypergraph):
        sweep = sweep_module_splits(tiny_hypergraph, [0, 1, 2, 3])
        p = sweep.points[0]
        assert p.ratio_cut == pytest.approx(p.nets_cut / (1 * 3))

    def test_number_of_points(self, small_circuit):
        order = list(range(small_circuit.num_modules))
        sweep = sweep_module_splits(small_circuit, order)
        assert len(sweep.points) == small_circuit.num_modules - 1

    def test_best_split_two_clusters(self, two_cluster_hypergraph):
        # Ordering that lists cluster A then cluster B: best split is 4.
        sweep = sweep_module_splits(
            two_cluster_hypergraph, [0, 1, 2, 3, 4, 5, 6, 7]
        )
        assert sweep.best.rank == 4
        assert sweep.best.nets_cut == 1
        u, w = sweep.best_sides()
        assert u == [0, 1, 2, 3]

    def test_non_permutation_rejected(self, tiny_hypergraph):
        with pytest.raises(PartitionError):
            sweep_module_splits(tiny_hypergraph, [0, 1, 2, 2])

    def test_single_module_rejected(self):
        with pytest.raises(PartitionError):
            sweep_module_splits(Hypergraph([], num_modules=1), [0])

    def test_random_orders_consistent(self, small_circuit):
        import random

        rng = random.Random(0)
        order = list(range(small_circuit.num_modules))
        rng.shuffle(order)
        sweep = sweep_module_splits(small_circuit, order)
        # Spot-check three points against direct counting.
        for point in sweep.points[:: len(sweep.points) // 3]:
            in_u = set(order[: point.rank])
            sides = [
                0 if v in in_u else 1
                for v in range(small_circuit.num_modules)
            ]
            assert point.nets_cut == net_cut_count(small_circuit, sides)
