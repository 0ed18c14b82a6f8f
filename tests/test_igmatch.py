"""Tests for IG-Match, the paper's primary algorithm."""

import pytest

from repro.errors import PartitionError
from repro.hypergraph import Hypergraph
from repro.intersection import intersection_graph
from repro.partitioning import (
    IGMatchConfig,
    ig_match,
    ig_match_sweep,
)
from repro.spectral import spectral_ordering
from tests.conftest import random_hypergraph


class TestBasics:
    def test_two_clusters(self, two_cluster_hypergraph):
        result = ig_match(two_cluster_hypergraph)
        assert result.nets_cut == 1
        assert sorted(result.partition.u_modules) in (
            [0, 1, 2, 3], [4, 5, 6, 7]
        )

    def test_result_metadata(self, small_circuit):
        result = ig_match(small_circuit)
        assert result.algorithm == "IG-Match"
        assert result.details["splits_evaluated"] > 0
        assert 1 <= result.details["best_rank"] < small_circuit.num_nets

    def test_deterministic(self, small_circuit):
        a = ig_match(small_circuit, IGMatchConfig(seed=0))
        b = ig_match(small_circuit, IGMatchConfig(seed=0))
        assert a.partition.sides == b.partition.sides

    def test_finds_planted_partition(self, small_circuit):
        result = ig_match(small_circuit)
        # Planted: 30 modules on side U with 3 crossing nets.
        assert result.ratio_cut <= 3 / (30 * 90) * 2.0

    def test_too_few_modules(self):
        with pytest.raises(PartitionError):
            ig_match(Hypergraph([[0]], num_modules=1))

    def test_too_few_nets(self):
        with pytest.raises(PartitionError):
            ig_match(Hypergraph([[0, 1]]))

    def test_bad_stride(self, small_circuit):
        with pytest.raises(PartitionError):
            ig_match(small_circuit, IGMatchConfig(split_stride=0))


class TestTheorem5Invariant:
    """No completed partition may cut more nets than the matching size."""

    @pytest.mark.parametrize("seed", range(8))
    def test_invariant_random_hypergraphs(self, seed):
        h = random_hypergraph(seed, num_modules=14, num_nets=16)
        evaluations, partition = ig_match_sweep(h, IGMatchConfig())
        assert partition is not None
        for e in evaluations:
            assert e.nets_cut <= e.matching_size
        result = ig_match(h, IGMatchConfig())
        assert result.nets_cut <= result.details["matching_bound"]

    def test_invariant_on_circuit(self, small_circuit):
        evaluations, partition = ig_match_sweep(small_circuit, IGMatchConfig())
        assert partition is not None
        for e in evaluations:
            assert e.nets_cut <= e.matching_size

    def test_strict_improvement_possible(self):
        """Figure 4's phenomenon: the completed cut can be strictly
        smaller than the matching bound on some split of some netlist."""
        found_strict = False
        for seed in range(30):
            h = random_hypergraph(seed, num_modules=10, num_nets=12)
            evaluations, _ = ig_match_sweep(h, IGMatchConfig())
            if any(e.nets_cut < e.matching_size for e in evaluations):
                found_strict = True
                break
        assert found_strict


class TestOrderingControl:
    def test_explicit_order_used(self, two_cluster_hypergraph):
        h = two_cluster_hypergraph
        # Order that sweeps cluster-A nets (0..5) before cluster-B nets.
        order = list(range(h.num_nets))
        result = ig_match(h, order=order)
        assert result.nets_cut == 1

    def test_bad_order_rejected(self, small_circuit):
        with pytest.raises(PartitionError):
            ig_match(small_circuit, order=[0, 0, 1])

    def test_same_order_same_result(self, small_circuit):
        order = spectral_ordering(
            intersection_graph(small_circuit, "paper"), seed=0
        )
        a = ig_match(small_circuit, order=order)
        b = ig_match(small_circuit, order=order)
        assert a.partition.sides == b.partition.sides


class TestStride:
    def test_stride_trades_quality(self, small_circuit):
        full = ig_match(small_circuit, IGMatchConfig(split_stride=1))
        strided = ig_match(small_circuit, IGMatchConfig(split_stride=5))
        assert strided.details["splits_evaluated"] < (
            full.details["splits_evaluated"]
        )
        # Strided can only be equal or worse (it sees a subset of splits
        # of the same ordering).
        assert strided.ratio_cut >= full.ratio_cut - 1e-15


class TestRecursive:
    def test_recursive_never_worse(self, medium_circuit):
        flat = ig_match(medium_circuit, IGMatchConfig(seed=0))
        rec = ig_match(
            medium_circuit, IGMatchConfig(seed=0, recursive_depth=1)
        )
        assert rec.ratio_cut <= flat.ratio_cut + 1e-15

    def test_recursive_random_instances(self):
        for seed in range(5):
            h = random_hypergraph(seed + 3, num_modules=16, num_nets=18)
            flat = ig_match(h, IGMatchConfig())
            rec = ig_match(h, IGMatchConfig(recursive_depth=2))
            assert rec.ratio_cut <= flat.ratio_cut + 1e-15


class TestWeightings:
    @pytest.mark.parametrize(
        "weighting", ["paper", "unit", "overlap", "jaccard"]
    )
    def test_all_weightings_work(self, small_circuit, weighting):
        result = ig_match(small_circuit, IGMatchConfig(weighting=weighting))
        assert result.nets_cut >= 1

    def test_weightings_similar_quality(self, small_circuit):
        # The paper's robustness claim: results across weightings are
        # similar.  Allow a factor of 3 spread on the small circuit.
        ratios = [
            ig_match(small_circuit, IGMatchConfig(weighting=w)).ratio_cut
            for w in ("paper", "unit", "overlap", "jaccard")
        ]
        assert max(ratios) <= 3 * min(ratios)
