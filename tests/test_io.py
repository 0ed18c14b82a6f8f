"""Tests for netlist file I/O."""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.bench.generator import generate_from_spec
from repro.bench.specs import get_spec, spec_names
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
from tests.oracles import reference_loads_net
from tests.strategies import netlist_texts


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


def assert_same_reading(text, name=""):
    """``loads_net`` and the builder-based reference give equal
    hypergraphs, names included, or raise the same error."""
    try:
        want = reference_loads_net(text, name=name)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            loads_net(text, name=name)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        assert raised.value.line == exc.line
        return exc
    got = loads_net(text, name=name)
    assert got == want
    assert got.net_pins == want.net_pins
    assert got.module_nets == want.module_nets
    assert got.module_areas == want.module_areas
    assert [got.module_name(v) for v in range(got.num_modules)] == [
        want.module_name(v) for v in range(want.num_modules)
    ]
    assert [got.net_name(e) for e in range(got.num_nets)] == [
        want.net_name(e) for e in range(want.num_nets)
    ]
    assert got.name == want.name
    return None


def reformatted(text):
    """``text`` with some keywords upper-cased, some trailing comments
    and some blank lines."""
    lines = []
    for i, line in enumerate(text.splitlines()):
        keyword, _, rest = line.partition(" ")
        if i % 3 == 1:
            keyword = keyword.upper()
        line = f"{keyword} {rest}"
        if i % 5 == 2:
            line += "  # note"
        if i % 7 == 3:
            lines.append("")
        lines.append(line)
    return "\n".join(lines)


#: Texts every check of the reader rejects, one per check.
MALFORMED = {
    "module-declared-twice": "module a\nmodule a",
    "module-declared-after-a-net-made-it": "net n a b\nmodule b 2",
    "negative-area": "module a -1",
    "nan-area": "module a nan",
    "inf-area": "module a inf",
    "non-numeric-area": "module a xyz",
    "module-without-name": "module",
    "module-with-extra-field": "module a 1 2",
    "net-without-name": "net",
    "duplicate-net-name": "net n a b\nnet n c d",
    "unknown-keyword": "wibble a b",
    "line-number-past-comments": (
        "# header\n\n  MODULE a # note\nNet n a\n\nmodule A 1\nmodule a"
    ),
}

#: Well-formed texts at the edges of the format.
EDGE_CASES = {
    "empty": "",
    "comments-only": "# one\n\n   # two",
    "keyword-case": "MODULE a 2\nNet n a b\nnEt m b",
    "net-without-pins": "net n",
    "repeated-pin": "net n a a b",
    "zero-and-exponent-areas": "module a 0\nmodule b 1e3\nnet n b a",
    "isolated-module": "module a\nmodule b\nnet n b",
}


class TestNetReaderEqualsReference:
    """``loads_net`` fills the lists ``Hypergraph`` takes directly;
    :func:`tests.oracles.reference_loads_net` stages them through a
    ``HypergraphBuilder``."""

    @pytest.mark.parametrize("circuit", spec_names())
    def test_suite_circuit(self, circuit):
        h = generate_from_spec(get_spec(circuit), seed=1, scale=0.2)
        rng = random.Random(circuit)
        with_areas = Hypergraph(
            h.net_pins,
            num_modules=h.num_modules,
            module_areas=[
                rng.choice((0.0, 0.5, 1.0, 2.5, 7.0))
                for _ in range(h.num_modules)
            ],
        )
        text = dumps_net(h)
        nets_only = "\n".join(
            line for line in text.splitlines()
            if not line.startswith("module")
        )
        for variant in (text, dumps_net(with_areas), nets_only,
                        reformatted(text)):
            assert assert_same_reading(variant, name=circuit) is None

    @settings(max_examples=150, deadline=None)
    @given(netlist_texts())
    def test_fuzzed_texts(self, text):
        assert_same_reading(text)

    @pytest.mark.parametrize("text", list(MALFORMED.values()),
                             ids=list(MALFORMED))
    def test_malformed_text_raises_the_same_error(self, text):
        assert isinstance(assert_same_reading(text), ParseError)

    @pytest.mark.parametrize("text", list(EDGE_CASES.values()),
                             ids=list(EDGE_CASES))
    def test_edge_case_reads_the_same(self, text):
        assert assert_same_reading(text) is None
