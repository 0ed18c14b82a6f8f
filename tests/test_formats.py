"""Tests for the hMETIS and Bookshelf netlist formats."""

import pytest
from hypothesis import given, settings

from repro.errors import ParseError
from repro.hypergraph import (
    Hypergraph,
    dumps_bookshelf,
    dumps_hgr,
    load_bookshelf,
    load_hgr,
    loads_bookshelf,
    loads_hgr,
    save_bookshelf,
    save_hgr,
)
from tests.conftest import hypergraph_strategy


class TestHgrParsing:
    def test_plain(self):
        text = "3 4\n1 2\n2 3 4\n1 4\n"
        h = loads_hgr(text)
        assert h.num_modules == 4
        assert h.num_nets == 3
        assert h.pins(1) == (1, 2, 3)  # 1-indexed input

    def test_comments_ignored(self):
        text = "% header comment\n2 3\n% body comment\n1 2\n2 3\n"
        assert loads_hgr(text).num_nets == 2

    def test_net_weights_preserved(self):
        text = "2 3 1\n5 1 2\n7 2 3\n"
        h = loads_hgr(text)
        assert h.pins(0) == (0, 1)
        assert h.has_net_weights
        assert h.net_weights == (5.0, 7.0)

    def test_vertex_weights_become_areas(self):
        text = "1 3 10\n1 2 3\n4\n5\n6\n"
        h = loads_hgr(text)
        assert h.module_areas == (4.0, 5.0, 6.0)

    def test_fmt_11(self):
        text = "1 2 11\n9 1 2\n3\n4\n"
        h = loads_hgr(text)
        assert h.pins(0) == (0, 1)
        assert h.module_areas == (3.0, 4.0)
        assert h.net_weight(0) == 9.0

    def test_net_weight_roundtrip(self):
        from repro.hypergraph import Hypergraph, dumps_hgr

        h = Hypergraph([[0, 1], [1, 2]], net_weights=[3.0, 1.0])
        back = loads_hgr(dumps_hgr(h))
        assert back.net_weights == (3.0, 1.0)
        assert back == h

    def test_pin_out_of_range(self):
        with pytest.raises(ParseError):
            loads_hgr("1 2\n1 5\n")

    def test_pin_zero_rejected(self):
        with pytest.raises(ParseError):
            loads_hgr("1 2\n0 1\n")

    def test_wrong_line_count(self):
        with pytest.raises(ParseError):
            loads_hgr("3 4\n1 2\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            loads_hgr("% nothing\n")

    def test_bad_fmt(self):
        with pytest.raises(ParseError):
            loads_hgr("1 2 7\n1 2\n")

    def test_non_integer_pin(self):
        with pytest.raises(ParseError):
            loads_hgr("1 2\n1 x\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1 1 1 \n -3 1", 2),  # negative net weight
            ("1 2 10\n1 2\n-1\n1\n", 3),  # vertex weights
            ("1 2 10\n1 2\nnan\n1\n", 3),
            ("1 2 10\n1 2\ninf\n1\n", 3),
        ],
    )
    def test_bad_weight_names_its_line(self, text, line):
        with pytest.raises(ParseError) as info:
            loads_hgr(text)
        assert info.value.line == line


class TestHgrRoundtrip:
    def test_file_roundtrip(self, tmp_path, small_circuit):
        path = tmp_path / "c.hgr"
        save_hgr(small_circuit, path)
        back = load_hgr(path)
        assert back == small_circuit

    def test_weighted_roundtrip(self):
        h = Hypergraph([[0, 1], [1, 2]], module_areas=[2.0, 1.0, 3.0])
        back = loads_hgr(dumps_hgr(h))
        assert back.module_areas == h.module_areas

    def test_fractional_areas_rejected_on_dump(self):
        h = Hypergraph([[0, 1]], module_areas=[1.5, 1.0])
        with pytest.raises(ParseError):
            dumps_hgr(h)

    @settings(max_examples=30, deadline=None)
    @given(hypergraph_strategy())
    def test_property_roundtrip(self, h):
        assert loads_hgr(dumps_hgr(h)) == h


NODES = """UCLA nodes 1.0
# generated
NumNodes : 3
NumTerminals : 1
    a 2 3
    b 1 1
    p0 0 0 terminal
"""

NETS = """UCLA nets 1.0
NumNets : 2
NumPins : 5
NetDegree : 3 n_clk
    a B
    b I
    p0 O
NetDegree : 2
    a B
    b B
"""


class TestBookshelfParsing:
    def test_basic(self):
        h = loads_bookshelf(NODES, NETS, name="bs")
        assert h.num_modules == 3
        assert h.num_nets == 2
        assert h.module_name(0) == "a"
        assert h.module_area(0) == 6.0  # 2 * 3
        assert h.module_area(2) == 0.0  # terminal
        assert h.net_name(0) == "n_clk"
        assert h.pins(0) == (0, 1, 2)

    def test_unnamed_net_gets_default(self):
        h = loads_bookshelf(NODES, NETS)
        assert h.net_name(1) == "net1"

    def test_missing_header(self):
        with pytest.raises(ParseError):
            loads_bookshelf("NumNodes : 1\n a 1 1\n", NETS)

    def test_unknown_node_in_net(self):
        bad = NETS.replace("    b I", "    zz I")
        with pytest.raises(ParseError):
            loads_bookshelf(NODES, bad)

    def test_wrong_pin_count(self):
        bad = NETS.replace("NumPins : 5", "NumPins : 9")
        with pytest.raises(ParseError):
            loads_bookshelf(NODES, bad)

    def test_wrong_net_count(self):
        bad = NETS.replace("NumNets : 2", "NumNets : 3")
        with pytest.raises(ParseError):
            loads_bookshelf(NODES, bad)

    def test_truncated_net_block(self):
        bad = NETS.rsplit("\n    a B", 1)[0]
        with pytest.raises(ParseError):
            loads_bookshelf(NODES, bad)

    def test_node_count_mismatch(self):
        bad = NODES.replace("NumNodes : 3", "NumNodes : 5")
        with pytest.raises(ParseError):
            loads_bookshelf(bad, NETS)

    @pytest.mark.parametrize(
        "node", ["a -1 1", "a nan 1", "a inf 1", "a 1e200 1e200"]
    )
    def test_bad_node_area_names_its_line(self, node):
        bad = NODES.replace("    a 2 3", "    " + node)
        with pytest.raises(ParseError) as info:
            loads_bookshelf(bad, NETS)
        assert info.value.line == 5


class TestBookshelfRoundtrip:
    def test_file_roundtrip(self, tmp_path, small_circuit):
        nodes = tmp_path / "c.nodes"
        nets = tmp_path / "c.nets"
        save_bookshelf(small_circuit, nodes, nets)
        back = load_bookshelf(nodes, nets)
        assert back == small_circuit
        assert back.module_name(0) == small_circuit.module_name(0)

    @settings(max_examples=30, deadline=None)
    @given(hypergraph_strategy())
    def test_property_roundtrip(self, h):
        nodes_text, nets_text = dumps_bookshelf(h)
        assert loads_bookshelf(nodes_text, nets_text) == h
