"""End-to-end integration tests across modules.

These exercise the full pipelines a user would run: generate or load a
netlist, partition it with every algorithm, compare metrics, and verify
the cross-algorithm quality ordering the paper reports.
"""

import pytest

from repro import (
    EIG1Config,
    FMConfig,
    RCutConfig,
    build_circuit,
    eig1,
    fm_bipartition,
    generate_hierarchical,
    ig_match,
    ig_vote,
    rcut,
    recursive_partition,
    refine,
)
from repro.hypergraph import load_net, save_net


class TestFullPipeline:
    def test_generate_save_load_partition(self, tmp_path):
        h = generate_hierarchical(
            num_modules=150, num_nets=170, natural_fraction=0.3,
            crossing_nets=4, seed=2, name="pipeline",
        )
        path = tmp_path / "pipeline.net"
        save_net(h, path)
        reloaded = load_net(path)
        assert reloaded == h

        direct = ig_match(h)
        via_file = ig_match(reloaded)
        assert direct.partition.sides == via_file.partition.sides

    def test_all_algorithms_agree_on_metric_definitions(
        self, small_circuit
    ):
        """Every algorithm's reported metrics must be recomputable from
        its partition."""
        from repro.partitioning.metrics import (
            net_cut_count,
            ratio_cut_of_sides,
        )

        results = [
            ig_match(small_circuit),
            ig_vote(small_circuit),
            eig1(small_circuit),
            rcut(small_circuit, RCutConfig(restarts=2)),
            fm_bipartition(small_circuit, FMConfig(seed=0)),
        ]
        for result in results:
            sides = list(result.partition.sides)
            assert result.nets_cut == net_cut_count(small_circuit, sides)
            assert result.ratio_cut == pytest.approx(
                ratio_cut_of_sides(small_circuit, sides)
            )

    def test_paper_quality_ordering(self, medium_circuit):
        """The paper's headline shape: ratio-cut family beats balanced
        FM; IG-Match at least matches IG-Vote."""
        igm = ig_match(medium_circuit)
        vote = ig_vote(medium_circuit)
        fm = fm_bipartition(medium_circuit, FMConfig(seed=0))
        assert igm.ratio_cut <= vote.ratio_cut * 1.001
        assert igm.ratio_cut <= fm.ratio_cut

    def test_benchmark_circuit_pipeline(self):
        h = build_circuit("Test04", scale=0.15)
        igm = ig_match(h)
        assert igm.partition.u_size + igm.partition.w_size == (
            h.num_modules
        )
        polished = refine(igm)
        assert polished.ratio_cut <= igm.ratio_cut + 1e-15

    def test_hardware_simulation_scenario(self, medium_circuit):
        """Section 1's application: partition into 4 blocks and count
        multiplexed (external) signals."""
        result = recursive_partition(medium_circuit, 4)
        assert result.num_blocks == 4
        total_external = sum(
            result.external_nets_of_block(b) for b in range(4)
        )
        # Every cut net is external to at least 2 blocks.
        assert total_external >= 2 * result.nets_cut

    def test_area_weighted_reporting(self):
        h = generate_hierarchical(
            num_modules=60, num_nets=70, natural_fraction=0.3,
            crossing_nets=2, seed=5,
        )
        # Rebuild with non-unit areas.
        from repro.hypergraph import Hypergraph

        nets = [list(h.pins(j)) for j in range(h.num_nets)]
        weighted = Hypergraph(
            nets,
            num_modules=h.num_modules,
            module_areas=[1.0 + (v % 3) for v in range(h.num_modules)],
        )
        result = ig_match(weighted)
        u, w = result.areas.split(":")
        assert float(u) + float(w) == pytest.approx(weighted.total_area)
