"""Tests for the KL, RCut and simulated-annealing baselines."""

import pytest

from repro.errors import PartitionError
from repro.hypergraph import Hypergraph
from repro.partitioning import (
    AnnealingConfig,
    KLConfig,
    RCutConfig,
    anneal,
    kl_bisection,
    kl_bisection_graph,
    rcut,
)
from repro.partitioning.metrics import graph_edge_cut, is_bisection
from tests.conftest import graph_of


class TestKL:
    def test_two_cliques_graph(self):
        g = graph_of(8, [
            (base + i, base + j)
            for base in (0, 4)
            for i in range(4)
            for j in range(i + 1, 4)
        ] + [(3, 4)])
        sides = kl_bisection_graph(g, seed=0)
        assert graph_edge_cut(g, sides) == 1.0
        assert is_bisection(sides)

    def test_respects_initial_sides(self):
        g = graph_of(4, [(0, 1), (2, 3)])
        sides = kl_bisection_graph(g, initial_sides=[0, 0, 1, 1])
        assert graph_edge_cut(g, sides) == 0.0

    def test_bisection_maintained(self, small_circuit):
        result = kl_bisection(small_circuit, KLConfig(seed=1))
        assert is_bisection(result.partition.sides)

    def test_on_hypergraph_two_clusters(self, two_cluster_hypergraph):
        result = kl_bisection(two_cluster_hypergraph, KLConfig(seed=3))
        assert result.nets_cut == 1

    def test_too_small(self):
        with pytest.raises(PartitionError):
            kl_bisection_graph(graph_of(1, []))

    def test_initial_sides_length_checked(self):
        g = graph_of(3, [])
        with pytest.raises(PartitionError):
            kl_bisection_graph(g, initial_sides=[0, 1])


class TestRCut:
    def test_two_clusters(self, two_cluster_hypergraph):
        result = rcut(two_cluster_hypergraph, RCutConfig(restarts=4, seed=0))
        assert result.nets_cut == 1
        assert result.ratio_cut == pytest.approx(1 / 16)

    def test_small_circuit_reasonable(self, small_circuit):
        result = rcut(small_circuit, RCutConfig(restarts=5, seed=1))
        # Should be near the planted 30:90 quality.
        assert result.ratio_cut < 0.01

    def test_restart_count_in_details(self, small_circuit):
        result = rcut(small_circuit, RCutConfig(restarts=3, seed=0))
        assert result.details["restarts"] == 3
        assert len(result.details["runs"]) == 3

    def test_best_of_restarts_reported(self, small_circuit):
        result = rcut(small_circuit, RCutConfig(restarts=4, seed=2))
        run_ratios = [r["ratio_cut"] for r in result.details["runs"]]
        assert result.ratio_cut <= min(run_ratios) + 1e-12

    def test_initial_sides_single_run(self, two_cluster_hypergraph):
        result = rcut(
            two_cluster_hypergraph,
            RCutConfig(seed=0),
            initial_sides=[0, 0, 0, 0, 1, 1, 1, 1],
        )
        assert result.details["restarts"] == 1
        assert result.nets_cut == 1

    def test_sides_never_empty(self, small_circuit):
        result = rcut(small_circuit, RCutConfig(restarts=2, seed=5))
        assert result.partition.u_size >= 1
        assert result.partition.w_size >= 1

    def test_too_small(self):
        with pytest.raises(PartitionError):
            rcut(Hypergraph([], num_modules=1))


class TestAnnealing:
    def test_two_clusters(self, two_cluster_hypergraph):
        config = AnnealingConfig(seed=1, t_initial=1e-2, t_final=1e-6)
        result = anneal(two_cluster_hypergraph, config)
        assert result.nets_cut == 1

    def test_improves_on_random(self, small_circuit):
        import random

        from repro.partitioning.fm import random_balanced_sides
        from repro.partitioning.metrics import ratio_cut_of_sides

        rng = random.Random(0)
        initial = random_balanced_sides(small_circuit, rng)
        start_ratio = ratio_cut_of_sides(small_circuit, initial)
        result = anneal(
            small_circuit,
            AnnealingConfig(seed=0, moves_per_temperature=200),
            initial_sides=initial,
        )
        assert result.ratio_cut < start_ratio

    def test_deterministic(self, two_cluster_hypergraph):
        a = anneal(two_cluster_hypergraph, AnnealingConfig(seed=4))
        b = anneal(two_cluster_hypergraph, AnnealingConfig(seed=4))
        assert a.partition.sides == b.partition.sides

    def test_too_small(self):
        with pytest.raises(PartitionError):
            anneal(Hypergraph([], num_modules=1))
