"""Every FM pass equals the reference pass, move for move.

:meth:`FMEngine.run_pass` asks the balance rule for ``(side, area)``
verdicts and walks its gain buckets in place;
:class:`tests.oracles.ReferenceFMPass` is the pass as first written,
with a cell predicate over sorted, copied buckets, and a revert that
moves each cell back.  Gain ties go by set iteration order, so equal
move sequences also mean every bucket saw the same history of inserts
and removes; equal state after the pass means the engine's recount
matches the reference's reverse moves.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import generate_from_spec
from repro.bench.specs import get_spec
from repro.hypergraph import Hypergraph
from repro.partitioning import FMEngine
from tests.oracles import ReferenceFMPass
from tests.strategies import adversarial_csr_hypergraphs, hypergraphs

RULES = ("window", "shift", "swap", "block-side", "block-all")


def make_rule(kind, state, h, side_arg):
    """The ``(side, area)`` rule ``kind``, reading ``state``'s side
    counts and areas (an engine's or a reference pass's).

    ``window`` is FM's area window at the default tolerance, ``shift``
    and ``swap`` are RCut's rules (``swap`` moving cells off
    ``side_arg`` only), ``block-side`` blocks ``side_arg``, and
    ``block-all`` blocks everything.
    """
    if kind == "window":
        total = h.total_area
        slack = 0.1 * total + max(h.module_areas, default=0.0)
        low, high = total / 2 - slack, total / 2 + slack

        def window(side, area):
            if state.side_count[side] <= 1:
                return False
            new_to = state.side_area[1 - side] + area
            new_from = state.side_area[side] - area
            return low <= new_to <= high and low <= new_from <= high

        return window
    if kind == "shift":
        return lambda side, area: state.side_count[side] > 1
    if kind == "swap":
        return lambda side, area: (
            side == side_arg and state.side_count[side] > 1
        )
    if kind == "block-side":
        return lambda side, area: side != side_arg
    return lambda side, area: False


def check_passes(h, sides, kind, side_arg, objective, lookahead,
                 passes=3):
    """Run ``passes`` passes on an engine and on the reference from the
    same start, asserting equal state after each."""
    engine = FMEngine(h, sides)
    reference = ReferenceFMPass(engine)
    moves = []
    engine_move = engine.move

    def logged_move(cell, *args):
        moves.append(cell)
        engine_move(cell, *args)

    engine.move = logged_move
    rule = make_rule(kind, engine, h, side_arg)
    calls = [0]

    def counted_rule(side, area):
        calls[0] += 1
        return rule(side, area)

    reference_rule = make_rule(kind, reference, h, side_arg)
    areas = h.module_areas

    def cell_rule(cell):
        return reference_rule(reference.sides[cell], areas[cell])

    for _ in range(passes):
        calls[0] = 0
        moves.clear()
        reference.moves.clear()
        outcome = engine.run_pass(counted_rule, objective, lookahead)
        expected = reference.run_pass(cell_rule, objective, lookahead)
        assert outcome == expected
        # The pass moves each cell once and reverts the tail without a
        # move call; the reference logs its move-by-move revert after.
        assert len(moves) == engine.last_pass["moved"]
        assert moves == reference.moves[: engine.last_pass["moved"]]
        assert engine.sides == reference.sides
        assert engine.cut == reference.cut
        assert engine.pin_count == reference.pin_count
        assert engine.gains == reference.gains
        assert engine.last_pass == reference.last_pass
        assert engine.side_count == reference.side_count
        assert engine.side_area == reference.side_area
        # At most one rule call per distinct area per side per step.
        assert calls[0] <= (
            2 * len(set(areas)) * (engine.last_pass["moved"] + 1)
        )


PASS_SETUP = dict(
    kind=st.sampled_from(RULES),
    side_arg=st.integers(0, 1),
    objective=st.sampled_from(("cut", "ratio")),
    lookahead=st.integers(1, 2),
    data=st.data(),
)


class TestPassEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(
        h=st.one_of(
            hypergraphs(max_modules=30, max_nets=40, pin_skew="two-pin"),
            adversarial_csr_hypergraphs(),
        ),
        **PASS_SETUP,
    )
    def test_fuzzed(self, h, kind, side_arg, objective, lookahead, data):
        n = h.num_modules
        sides = data.draw(st.lists(st.integers(0, 1), min_size=n,
                                   max_size=n))
        check_passes(h, sides, kind, side_arg, objective, lookahead)

    @pytest.mark.parametrize("kind", RULES)
    @pytest.mark.parametrize("objective", ("cut", "ratio"))
    @pytest.mark.parametrize("lookahead", (1, 2))
    def test_suite_circuit(self, kind, objective, lookahead):
        # Large enough that buckets grow and shrink past set resizes.
        h = generate_from_spec(get_spec("Test02"), seed=5, scale=0.1)
        rng = random.Random(kind + objective)
        sides = [rng.randint(0, 1) for _ in range(h.num_modules)]
        check_passes(h, sides, kind, 0, objective, lookahead)

    @pytest.mark.parametrize("kind", RULES)
    @pytest.mark.parametrize("lookahead", (1, 2))
    def test_mixed_areas(self, kind, lookahead):
        h, sides = mixed_area_circuit((0.0, 1.0, 1.0, 3.0, 10.0))
        check_passes(h, sides, kind, 1, "cut", lookahead)

    @pytest.mark.parametrize("kind", RULES)
    def test_fractional_areas(self, kind):
        # Sums of these areas depend on their order, so bit-equal side
        # areas mean the revert undid the moves in reverse order.
        h, sides = mixed_area_circuit((0.0, 0.1, 0.7, 1.3, 2.9))
        check_passes(h, sides, kind, 1, "cut", 1)


def mixed_area_circuit(choices):
    """bm1 at scale 0.2 with module areas drawn from ``choices``, and
    random sides."""
    rng = random.Random(1)
    base = generate_from_spec(get_spec("bm1"), seed=2, scale=0.2)
    areas = [rng.choice(choices) for _ in range(base.num_modules)]
    h = Hypergraph([base.pins(e) for e in range(base.num_nets)],
                   num_modules=base.num_modules, module_areas=areas)
    return h, [rng.randint(0, 1) for _ in range(h.num_modules)]
