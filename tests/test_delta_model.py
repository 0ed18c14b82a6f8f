"""NetlistDelta value semantics: wire format, validation, algebra.

The algebraic properties (``apply(invert(d))`` is the identity;
compose-then-apply equals apply-then-apply) are checked with hypothesis
over :func:`tests.strategies.adversarial_csr_hypergraphs` — the same
degenerate-shape generator the CSR arrays are fuzzed with.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta import (
    DELTA_FORMAT,
    ModuleAdd,
    NetAdd,
    NetlistDelta,
    dumps_delta,
    load_delta,
    loads_delta,
    random_delta,
    save_delta,
)
from repro.errors import DeltaError
from repro.hypergraph import Hypergraph
from repro.service import exact_fingerprint
from tests.conftest import random_hypergraph
from tests.strategies import adversarial_csr_hypergraphs


@pytest.fixture
def base():
    return Hypergraph(
        [[0, 1], [1, 2, 3], [0, 3], [2, 3]], name="base"
    )


class TestWireFormat:
    def test_empty_delta_is_format_tag_only(self):
        assert json.loads(dumps_delta(NetlistDelta())) == {
            "format": DELTA_FORMAT
        }

    def test_round_trip_all_fields(self, base):
        delta = NetlistDelta(
            remove_modules=(0,),
            add_modules=(ModuleAdd(area=2.0, name="new"),),
            set_module_areas={1: 3.0},
            remove_nets=(0,),
            add_nets=(NetAdd(pins=(1, 2), weight=2.0),),
            set_pins={1: (1, 2)},
            set_net_weights={2: 4.0},
        )
        assert loads_delta(dumps_delta(delta)) == delta

    def test_canonical_text_is_stable(self, base):
        delta = NetlistDelta(remove_nets=(1, 0), set_pins={2: (0, 1)})
        assert dumps_delta(delta) == dumps_delta(
            loads_delta(dumps_delta(delta))
        )

    def test_save_load(self, base, tmp_path):
        delta = NetlistDelta(set_pins={0: (0, 2)})
        path = tmp_path / "delta.json"
        save_delta(delta, path)
        assert load_delta(path) == delta

    def test_bad_format_tag_rejected(self):
        with pytest.raises(DeltaError, match="format"):
            NetlistDelta.from_doc({"format": "nope"})

    def test_bad_json_rejected(self):
        with pytest.raises(DeltaError, match="invalid delta JSON"):
            loads_delta("{not json")

    @pytest.mark.parametrize(
        "edit",
        [
            {"add_nets": [{"pins": [1, True]}]},
            {"add_nets": [{"pins": [1, float("inf")]}]},
            {"add_nets": [{"pins": [1, 2.5]}]},
            {"add_nets": [{"pins": [1, "2"]}]},
            {"add_nets": [{"pins": [1, 2], "index": "0"}]},
            {"add_modules": [{"index": 1.0}]},
            {"remove_modules": [True]},
            {"remove_nets": [0.5]},
            {"set_pins": {"0": [1, 2.5]}},
        ],
        ids=[
            "pin-bool", "pin-inf", "pin-float", "pin-string",
            "net-index-string", "module-index-float",
            "remove-module-bool", "remove-net-float", "set-pins-float",
        ],
    )
    def test_indices_must_be_integers(self, edit):
        with pytest.raises(DeltaError, match="must be an integer"):
            NetlistDelta.from_doc(dict({"format": DELTA_FORMAT}, **edit))

    @pytest.mark.parametrize(
        "edit",
        [
            {"set_module_areas": {"0": "3"}},
            {"set_module_areas": {"0": True}},
            {"set_net_weights": {"0": True}},
            {"set_net_weights": {"0": "0.5"}},
            {"add_modules": [{"area": "2.5"}]},
            {"add_modules": [{"area": False}]},
            {"add_nets": [{"pins": [1, 2], "weight": "1"}]},
            {"add_nets": [{"pins": [1, 2], "weight": True}]},
        ],
        ids=[
            "set-area-string", "set-area-bool", "set-weight-bool",
            "set-weight-string", "add-area-string", "add-area-bool",
            "add-weight-string", "add-weight-bool",
        ],
    )
    def test_areas_and_weights_must_be_numbers(self, edit):
        # float() read "3" as 3.0 and true as 1.0.
        with pytest.raises(DeltaError, match="must be a number"):
            NetlistDelta.from_doc(dict({"format": DELTA_FORMAT}, **edit))

    def test_integer_and_float_areas_and_weights_accepted(self):
        delta = NetlistDelta.from_doc({
            "format": DELTA_FORMAT,
            "set_module_areas": {"0": 3, "1": 0.5},
            "set_net_weights": {"2": 2},
            "add_modules": [{"area": 4}],
            "add_nets": [{"pins": [0, 1], "weight": 1.5}],
        })
        assert delta.set_module_areas == {0: 3.0, 1: 0.5}
        assert delta.set_net_weights == {2: 2.0}
        assert delta.add_modules[0].area == 4.0
        assert delta.add_nets[0].weight == 1.5

    @pytest.mark.parametrize(
        "build",
        [
            lambda: NetlistDelta(remove_nets=("2", 2.7)),
            lambda: NetlistDelta(remove_modules=(True,)),
            lambda: NetAdd(pins=("1", 2.9, True)),
            lambda: NetAdd(pins=(0, 1), weight="1"),
            lambda: NetAdd(pins=(0, 1), index=1.0),
            lambda: NetlistDelta(set_net_weights={1: True}),
            lambda: NetlistDelta(set_pins={"3": ["1", 2.2]}),
            lambda: NetlistDelta(set_pins={3: [1, 2.2]}),
            lambda: NetlistDelta(set_module_areas={0: "3"}),
            lambda: ModuleAdd(area="2.5"),
            lambda: ModuleAdd(index="0"),
        ],
        ids=[
            "remove-nets-string-and-float", "remove-modules-bool",
            "net-pins-string-float-bool", "net-weight-string",
            "net-index-float", "set-weight-bool", "set-pins-string-key",
            "set-pins-float-pin", "set-area-string", "module-area-string",
            "module-index-string",
        ],
    )
    def test_constructors_are_as_strict_as_the_wire(self, build):
        # int() and float() made ("2", 2.7) (2,), True 1.0 and "3" 3.0;
        # ModuleAdd kept the string area as given.
        with pytest.raises(DeltaError):
            build()

    def test_constructors_accept_numpy_numbers(self):
        import numpy as np

        delta = NetlistDelta(
            remove_nets=(np.int64(2),),
            add_nets=(NetAdd(pins=(np.int64(0), 1), weight=np.float64(2)),),
            set_module_areas={np.int64(0): 3},
        )
        assert delta.remove_nets == (2,)
        assert delta.add_nets[0].pins == (0, 1)
        assert delta.add_nets[0].weight == 2.0
        assert delta.set_module_areas == {0: 3.0}
        assert all(type(v) is int for v in delta.remove_nets)

    @pytest.mark.parametrize("churn", [False, True])
    def test_every_written_delta_reads_back(self, churn):
        # The strict reader accepts whatever dumps_delta writes.
        h = random_hypergraph(4, num_modules=30, num_nets=40)
        rng = random.Random(5)
        for _ in range(20):
            delta = random_delta(h, rng, module_churn=churn)
            assert loads_delta(dumps_delta(delta)) == delta


class TestValidation:
    def test_remove_module_out_of_range(self, base):
        with pytest.raises(DeltaError):
            NetlistDelta(remove_modules=(99,)).validate(base)

    def test_set_pins_on_removed_net(self, base):
        with pytest.raises(DeltaError):
            NetlistDelta(
                remove_nets=(0,), set_pins={0: (1, 2)}
            ).validate(base)

    def test_apply_validates(self, base):
        with pytest.raises(DeltaError):
            NetlistDelta(remove_nets=(99,)).apply(base)


class TestAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(
        h=adversarial_csr_hypergraphs(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_apply_invert_is_identity(self, h, seed):
        delta = random_delta(h, random.Random(seed))
        edited = delta.apply(h)
        restored = delta.invert(h).apply(edited)
        assert exact_fingerprint(restored) == exact_fingerprint(h)

    @settings(max_examples=40, deadline=None)
    @given(
        h=adversarial_csr_hypergraphs(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_compose_equals_sequential_apply(self, h, seed):
        rng = random.Random(seed)
        first = random_delta(h, rng)
        middle = first.apply(h)
        second = random_delta(middle, rng)
        composed = first.compose(second, h).apply(h)
        sequential = second.apply(first.apply(h))
        assert exact_fingerprint(composed) == exact_fingerprint(
            sequential
        )

    def test_noop_apply_preserves_fingerprint(self, base):
        assert exact_fingerprint(
            NetlistDelta().apply(base)
        ) == exact_fingerprint(base)
