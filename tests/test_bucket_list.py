"""Tests for the reference linked-list FM bucket structure
(:class:`tests.oracles.LinkedGainBuckets`), cross-validated against the
engine's dict-based buckets through identical traces."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.partitioning import GainBuckets
from tests.oracles import LinkedGainBuckets


class TestBasics:
    def test_insert_and_len(self):
        b = LinkedGainBuckets()
        b.insert(0, 3)
        b.insert(1, -2)
        assert len(b) == 2

    def test_duplicate_insert_rejected(self):
        b = LinkedGainBuckets()
        b.insert(0, 1)
        with pytest.raises(PartitionError):
            b.insert(0, 5)

    def test_remove(self):
        b = LinkedGainBuckets()
        b.insert(0, 2)
        b.remove(0, 2)
        assert len(b) == 0
        with pytest.raises(PartitionError):
            b.remove(0, 2)

    def test_remove_wrong_gain_rejected(self):
        b = LinkedGainBuckets()
        b.insert(0, 2)
        with pytest.raises(PartitionError):
            b.remove(0, 3)

    def test_update(self):
        b = LinkedGainBuckets()
        b.insert(0, 1)
        assert b.update(0, 1, 4) == 5
        gains = dict((c, g) for g, c in b.iter_best_first())
        assert gains[0] == 5

    def test_best_first_order(self):
        b = LinkedGainBuckets()
        for cell, gain in [(0, 2), (1, -1), (2, 7), (3, 2)]:
            b.insert(cell, gain)
        pairs = list(b.iter_best_first())
        assert pairs[0] == (7, 2)
        gains = [g for g, _ in pairs]
        assert gains == sorted(gains, reverse=True)

    def test_lifo_within_bucket(self):
        b = LinkedGainBuckets()
        b.insert(10, 0)
        b.insert(11, 0)
        b.insert(12, 0)
        cells = [c for _, c in b.iter_best_first()]
        assert cells == [12, 11, 10]

    def test_grows_beyond_bound(self):
        b = LinkedGainBuckets(max_gain=2)
        b.insert(0, 100)
        b.insert(1, -150)
        pairs = list(b.iter_best_first())
        assert pairs[0] == (100, 0)
        assert pairs[-1] == (-150, 1)
        assert b.grows == 2

    def test_bad_bound(self):
        with pytest.raises(PartitionError):
            LinkedGainBuckets(max_gain=0)

    def test_max_pointer_recovers_after_drain(self):
        b = LinkedGainBuckets()
        b.insert(0, 5)
        b.remove(0, 5)
        assert list(b.iter_best_first()) == []
        b.insert(1, -3)
        assert list(b.iter_best_first()) == [(-3, 1)]


@st.composite
def operation_traces(draw):
    """Random insert/remove/update traces valid for both structures."""
    ops = []
    live = {}
    next_cell = 0
    for _ in range(draw(st.integers(1, 40))):
        choice = draw(st.integers(0, 2))
        if choice == 0 or not live:
            gain = draw(st.integers(-12, 12))
            ops.append(("insert", next_cell, gain))
            live[next_cell] = gain
            next_cell += 1
        elif choice == 1:
            cell = draw(st.sampled_from(sorted(live)))
            ops.append(("remove", cell, live.pop(cell)))
        else:
            cell = draw(st.sampled_from(sorted(live)))
            delta = draw(st.integers(-6, 6))
            ops.append(("update", cell, live[cell], delta))
            live[cell] += delta
    return ops


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(operation_traces())
    def test_same_contents_as_dict_buckets(self, ops):
        linked = LinkedGainBuckets(max_gain=4)
        plain = GainBuckets()
        for op in ops:
            if op[0] == "insert":
                _, cell, gain = op
                linked.insert(cell, gain)
                plain.insert(cell, gain)
            elif op[0] == "remove":
                _, cell, gain = op
                linked.remove(cell, gain)
                plain.remove(cell, gain)
            else:
                _, cell, gain, delta = op
                assert linked.update(cell, gain, delta) == plain.update(
                    cell, gain, delta
                )
        assert len(linked) == len(plain)
        linked_pairs = sorted(linked.iter_best_first())
        plain_pairs = sorted(plain.iter_best_first())
        assert linked_pairs == plain_pairs
        # Same best gain (the property FM selection depends on).
        if linked_pairs:
            assert next(iter(linked.iter_best_first()))[0] == (
                next(iter(plain.iter_best_first()))[0]
            )

    def test_fm_pass_identical_with_either_structure(self, monkeypatch):
        """A real pass's bucket operations, replayed through both
        structures, give the same best gain after every step."""
        from repro.bench.generator import generate_from_spec
        from repro.bench.specs import get_spec
        from repro.partitioning import FMEngine
        from repro.partitioning import fm as fm_module

        trace = []
        built = []

        class Recording(GainBuckets):
            """Logs every insert/remove/update the pass makes."""

            def __init__(self, groups=None):
                super().__init__(groups)
                self.index = len(built)
                self.inside_update = False
                built.append(self)
                for gain, cells in (groups or {}).items():
                    for cell in cells:
                        trace.append((self.index, "insert", cell, gain))

            def _log(self, *op):
                if not self.inside_update:
                    trace.append((self.index,) + op)

            def insert(self, cell, gain):
                self._log("insert", cell, gain)
                super().insert(cell, gain)

            def remove(self, cell, gain):
                self._log("remove", cell, gain)
                super().remove(cell, gain)

            def update(self, cell, old_gain, delta):
                self._log("update", cell, old_gain, delta)
                self.inside_update = True
                try:
                    return super().update(cell, old_gain, delta)
                finally:
                    self.inside_update = False

        h = generate_from_spec(get_spec("bm1"), seed=1, scale=0.1)
        monkeypatch.setattr(fm_module, "GainBuckets", Recording)
        engine = FMEngine(h, [v % 2 for v in range(h.num_modules)])
        engine.run_pass(lambda side, area: True, objective="cut")
        monkeypatch.undo()
        kinds = {op[1] for op in trace}
        assert kinds == {"insert", "remove", "update"}

        def best_gain(buckets):
            return next(iter(buckets.iter_best_first()), (None,))[0]

        linked = [LinkedGainBuckets() for _ in built]
        plain = [GainBuckets() for _ in built]
        for index, op, *args in trace:
            getattr(linked[index], op)(*args)
            getattr(plain[index], op)(*args)
            assert best_gain(linked[index]) == best_gain(plain[index])
