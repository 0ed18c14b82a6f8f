"""Tests for the Fiduccia–Mattheyses engine and partitioner."""

import random

import pytest

from repro.errors import PartitionError
from repro.hypergraph import Hypergraph
from repro.partitioning import FMConfig, FMEngine, GainBuckets, fm_bipartition
from repro.partitioning.fm import random_balanced_sides
from repro.partitioning.metrics import net_cut_count
from tests.conftest import random_hypergraph
from tests.test_fm_pass_oracle import make_rule


class TestGainBuckets:
    def test_insert_and_len(self):
        b = GainBuckets()
        b.insert(0, 2)
        b.insert(1, 2)
        b.insert(2, -1)
        assert len(b) == 3

    def test_best_first_iteration(self):
        b = GainBuckets()
        b.insert(0, 1)
        b.insert(1, 5)
        b.insert(2, -3)
        gains = [g for g, _ in b.iter_best_first()]
        assert gains == sorted(gains, reverse=True)
        assert gains[0] == 5

    def test_remove(self):
        b = GainBuckets()
        b.insert(0, 3)
        b.remove(0, 3)
        assert len(b) == 0
        with pytest.raises(PartitionError):
            b.remove(0, 3)

    def test_update_moves_cell(self):
        b = GainBuckets()
        b.insert(0, 1)
        new = b.update(0, 1, 3)
        assert new == 4
        assert [c for _, c in b.iter_best_first()] == [0]

    def test_update_of_absent_cell_raises(self):
        b = GainBuckets()
        b.insert(0, 1)
        with pytest.raises(PartitionError):
            b.update(0, 2, 1)  # no bucket at gain 2
        with pytest.raises(PartitionError):
            b.update(1, 1, 1)  # the gain-1 bucket lacks cell 1
        assert list(b.iter_best_first()) == [(1, 0)]

    def test_update_zero_delta_noop(self):
        b = GainBuckets()
        b.insert(0, 1)
        assert b.update(0, 1, 0) == 1

    def test_walk_follows_max_pointer_down(self):
        b = GainBuckets({4: [0, 1], -2: [2]})
        assert [g for g, _ in b.iter_best_first()] == [4, 4, -2]
        b.remove(0, 4)
        b.remove(1, 4)
        b.update(2, -2, -3)
        assert list(b.iter_best_first()) == [(-5, 2)]
        b.insert(3, 0)
        assert list(b.iter_best_first()) == [(0, 3), (-5, 2)]


class TestEngineGains:
    def test_initial_gains_match_definition(self):
        for seed in range(6):
            h = random_hypergraph(seed, num_modules=10, num_nets=12)
            sides = [v % 2 for v in range(h.num_modules)]
            engine = FMEngine(h, sides)
            for v in range(h.num_modules):
                flipped = list(sides)
                flipped[v] = 1 - flipped[v]
                true_gain = net_cut_count(h, sides) - net_cut_count(
                    h, flipped
                )
                assert engine.gains[v] == true_gain

    def test_gains_stay_exact_under_moves(self):
        import random

        for seed in range(6):
            h = random_hypergraph(seed + 10, num_modules=12, num_nets=14)
            rng = random.Random(seed)
            sides = [rng.randint(0, 1) for _ in range(h.num_modules)]
            engine = FMEngine(h, sides)
            for _ in range(10):
                v = rng.randrange(h.num_modules)
                engine.move(v)
                # Cross-check the cut and every gain from scratch.
                assert engine.cut == net_cut_count(h, engine.sides)
                for u in range(h.num_modules):
                    flipped = list(engine.sides)
                    flipped[u] = 1 - flipped[u]
                    expected = engine.cut - net_cut_count(h, flipped)
                    assert engine.gains[u] == expected

    def test_side_counters(self):
        h = Hypergraph([[0, 1], [1, 2]], module_areas=[1.0, 2.0, 3.0])
        engine = FMEngine(h, [0, 0, 1])
        assert engine.side_count == [2, 1]
        assert engine.side_area == [3.0, 3.0]
        engine.move(1)
        assert engine.side_count == [1, 2]
        assert engine.side_area == [1.0, 5.0]


class TestRunPass:
    def test_pass_never_worsens(self):
        for seed in range(5):
            h = random_hypergraph(seed, num_modules=16, num_nets=20)
            import random

            sides = [random.Random(seed).randint(0, 1)
                     for _ in range(h.num_modules)]
            engine = FMEngine(h, sides)
            before = engine.cut
            engine.run_pass(lambda side, area: True, objective="cut")
            assert engine.cut <= before

    def test_bad_objective(self, tiny_hypergraph):
        engine = FMEngine(tiny_hypergraph, [0, 0, 1, 1])
        with pytest.raises(PartitionError):
            engine.run_pass(lambda side, area: True, objective="nope")

    def test_pass_respects_feasibility(self, two_cluster_hypergraph):
        # Modules 0 and 1 are the only ones of area 2, which the rule
        # never lets move.
        h = two_cluster_hypergraph
        h = Hypergraph([h.pins(e) for e in range(h.num_nets)],
                       module_areas=[2.0, 2.0] + [1.0] * 6)
        engine = FMEngine(h, [0, 1, 0, 1, 0, 1, 0, 1])
        engine.run_pass(lambda side, area: area != 2.0, objective="cut")
        assert engine.last_pass["moved"] == 6
        assert engine.sides[0] == 0 and engine.sides[1] == 1

    def test_blocked_side_keeps_its_cells(self, two_cluster_hypergraph):
        start = [0, 1, 0, 1, 0, 1, 0, 1]
        engine = FMEngine(two_cluster_hypergraph, start)
        engine.run_pass(lambda side, area: side == 1, objective="cut")
        assert engine.last_pass["moved"] == 4
        assert all(engine.sides[v] == 0 for v in range(8) if start[v] == 0)

    def test_rule_asked_once_per_side_per_step(self, small_circuit):
        # Unit areas: one rejection drops side 0 for the step.  Every
        # side-1 cell moves, so the last step finds no cell there to
        # ask about.
        calls = []
        engine = FMEngine(small_circuit,
                          [v % 2 for v in range(small_circuit.num_modules)])
        engine.run_pass(lambda side, area: calls.append(side) or side == 1,
                        objective="cut")
        assert engine.last_pass["moved"] == small_circuit.num_modules // 2
        assert calls == [0, 1] * engine.last_pass["moved"] + [0]


class TestFmBipartition:
    def test_finds_two_cluster_cut(self, two_cluster_hypergraph):
        result = fm_bipartition(
            two_cluster_hypergraph, FMConfig(balance_tolerance=0.0, seed=1)
        )
        assert result.nets_cut == 1
        assert sorted(result.partition.u_modules) in (
            [0, 1, 2, 3], [4, 5, 6, 7]
        )

    def test_respects_balance(self, small_circuit):
        result = fm_bipartition(
            small_circuit, FMConfig(balance_tolerance=0.05, seed=2)
        )
        total = small_circuit.num_modules
        assert abs(result.partition.u_size - total / 2) <= (
            0.05 * total + 1
        )

    def test_initial_sides_respected(self, two_cluster_hypergraph):
        result = fm_bipartition(
            two_cluster_hypergraph,
            FMConfig(balance_tolerance=0.0),
            initial_sides=[0, 0, 0, 0, 1, 1, 1, 1],
        )
        assert result.nets_cut == 1

    def test_too_few_modules(self):
        with pytest.raises(PartitionError):
            fm_bipartition(Hypergraph([], num_modules=1))

    def test_deterministic_given_seed(self, small_circuit):
        a = fm_bipartition(small_circuit, FMConfig(seed=9))
        b = fm_bipartition(small_circuit, FMConfig(seed=9))
        assert a.partition.sides == b.partition.sides

    def test_start_outside_window_is_moved_into_it(self):
        # Regression: with mixed areas a start can lie outside the area
        # window [102, 178], and the pass's rule then rejects every
        # move that would repair it.
        rng = random.Random(0)
        nets = [rng.sample(range(100), rng.randint(2, 4))
                for _ in range(150)]
        h = Hypergraph(nets, num_modules=100,
                       module_areas=[10.0] * 20 + [1.0] * 80)

        def area0(sides):
            return sum(a for a, s in zip(h.module_areas, sides) if s == 0)

        # seed 18's random start has side-0 area 203.
        start = random_balanced_sides(h, random.Random(18))
        assert area0(start) > 178
        result = fm_bipartition(h, FMConfig(seed=18))
        assert 102 <= area0(result.partition.sides) <= 178
        heavy_first = [0] * 50 + [1] * 50
        assert area0(heavy_first) == 230
        result = fm_bipartition(h, FMConfig(), initial_sides=heavy_first)
        assert 102 <= area0(result.partition.sides) <= 178

    def test_start_inside_window_is_untouched(self, small_circuit):
        sides = [v % 2 for v in range(small_circuit.num_modules)]
        direct = FMEngine(small_circuit, sides)
        direct.run_pass(make_rule("window", direct, small_circuit, 0),
                        objective="cut")
        result = fm_bipartition(small_circuit, FMConfig(max_passes=1),
                                initial_sides=sides)
        assert list(result.partition.sides) == direct.sides

    def test_zero_area_pads_cannot_empty_a_side(self):
        # Regression: area-based balance alone lets zero-area pads
        # drain one side completely.
        h = Hypergraph(
            [[0, 3], [1, 3], [2, 4], [3, 4]],
            module_areas=[0.0, 0.0, 0.0, 1.0, 1.0],
        )
        for seed in range(5):
            result = fm_bipartition(h, FMConfig(seed=seed))
            assert result.partition.u_size >= 1
            assert result.partition.w_size >= 1
