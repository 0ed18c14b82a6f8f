"""Tests for netlist file I/O."""

import numpy as np
import pytest

from repro.errors import ParseError
from repro.hypergraph import (
    Hypergraph,
    dumps_net,
    from_json,
    load_json,
    load_net,
    loads_net,
    save_json,
    save_net,
    to_json,
)


class TestJson:
    def test_roundtrip(self, tiny_hypergraph):
        assert from_json(to_json(tiny_hypergraph)) == tiny_hypergraph

    def test_roundtrip_with_metadata(self):
        h = Hypergraph(
            [[0, 1]],
            module_names=["a", "b"],
            net_names=["clk"],
            module_areas=[2.0, 1.0],
            name="x",
        )
        back = from_json(to_json(h))
        assert back == h
        assert back.module_name(0) == "a"
        assert back.net_name(0) == "clk"
        assert back.name == "x"

    def test_file_roundtrip(self, tmp_path, small_circuit):
        path = tmp_path / "c.json"
        save_json(small_circuit, path)
        assert load_json(path) == small_circuit

    def test_bad_format_tag(self):
        with pytest.raises(ParseError):
            from_json({"format": "something-else"})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nets", [[0, float("inf")]]),
            ("nets", [[0, 2.5]]),
            ("nets", [[0, True]]),
            ("nets", [[0, "2"]]),
            ("num_modules", 6.7),
            ("num_modules", True),
            ("num_modules", float("inf")),
        ],
        ids=[
            "pin-inf", "pin-float", "pin-bool", "pin-string",
            "count-float", "count-bool", "count-inf",
        ],
    )
    def test_pins_and_count_must_be_integers(self, field, value):
        # json.loads yields each of these; none may be truncated,
        # coerced or escape as OverflowError.
        doc = {
            "format": "repro-hypergraph-v1",
            "num_modules": 7,
            "nets": [[0, 1], [1, 2]],
        }
        doc[field] = value
        with pytest.raises(ParseError, match="must be an integer"):
            from_json(doc)

    def test_numpy_integers_accepted(self):
        h = Hypergraph([[0, 1], [1, 2]], num_modules=4)
        doc = to_json(h)
        doc["nets"] = [np.array(p, dtype=np.int64) for p in doc["nets"]]
        doc["num_modules"] = np.int64(4)
        assert from_json(doc) == h

    @pytest.mark.parametrize(
        "field, value",
        [
            ("module_areas", ["2", 1, 1]),
            ("module_areas", [True, 1, 1]),
            ("net_weights", [True, 1.0]),
            ("net_weights", [1.0, "3"]),
            ("module_areas", [None, 1, 1]),
        ],
        ids=[
            "area-string", "area-bool", "weight-bool", "weight-string",
            "area-null",
        ],
    )
    def test_areas_and_weights_must_be_numbers(self, field, value):
        # float() read "2" as 2.0 and true as 1.0.
        doc = {
            "format": "repro-hypergraph-v1",
            "num_modules": 3,
            "nets": [[0, 1], [1, 2]],
            field: value,
        }
        with pytest.raises(ParseError, match="must be a number"):
            from_json(doc)

    def test_area_beyond_float_range_is_parse_error(self):
        doc = {
            "format": "repro-hypergraph-v1",
            "num_modules": 3,
            "nets": [[0, 1], [1, 2]],
            "module_areas": [10**400, 1, 1],
        }
        with pytest.raises(ParseError, match="must be finite"):
            from_json(doc)

    def test_integer_and_float_areas_and_weights_accepted(self):
        h = Hypergraph(
            [[0, 1], [1, 2]], num_modules=3,
            module_areas=[2.0, 1.5, 1.0], net_weights=[3.0, 0.5],
        )
        doc = to_json(h)
        assert from_json(doc) == h
        doc["module_areas"] = [2, 1.5, np.float64(1)]
        doc["net_weights"] = [np.int64(3), 0.5]
        back = from_json(doc)
        assert back == h
        assert all(type(a) is float for a in back.module_areas)
        assert all(type(w) is float for w in back.net_weights)


class TestNetFormat:
    def test_roundtrip(self, tiny_hypergraph):
        back = loads_net(dumps_net(tiny_hypergraph))
        assert back == tiny_hypergraph

    def test_file_roundtrip(self, tmp_path, small_circuit):
        path = tmp_path / "c.net"
        save_net(small_circuit, path)
        back = load_net(path)
        assert back == small_circuit
        assert back.name == "c"  # stem becomes the name

    def test_parse_simple(self):
        text = """
        # a comment
        module a
        module b 2.5
        net w1 a b
        """
        h = loads_net(text)
        assert h.num_modules == 2
        assert h.module_area(1) == 2.5
        assert h.net_name(0) == "w1"

    def test_nets_create_modules(self):
        h = loads_net("net n1 x y z")
        assert h.num_modules == 3
        assert h.net_size(0) == 3

    def test_unknown_keyword(self):
        with pytest.raises(ParseError) as err:
            loads_net("wibble a b")
        assert err.value.line == 1

    def test_bad_area(self):
        with pytest.raises(ParseError):
            loads_net("module a xyz")

    def test_duplicate_module(self):
        with pytest.raises(ParseError):
            loads_net("module a\nmodule a")

    def test_duplicate_net_name(self):
        with pytest.raises(ParseError):
            loads_net("net n a b\nnet n c d")

    def test_net_missing_name(self):
        with pytest.raises(ParseError):
            loads_net("net")

    def test_inline_comment(self):
        h = loads_net("net n1 a b # trailing words")
        assert h.net_size(0) == 2

    def test_areas_preserved_in_dump(self):
        h = Hypergraph([[0, 1]], module_areas=[3.0, 1.0])
        text = dumps_net(h)
        assert "3" in text
        assert loads_net(text).module_area(0) == 3.0
