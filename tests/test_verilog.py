"""Tests for the structural Verilog front-end."""

import pytest

from repro.errors import ParseError
from repro.hypergraph import (
    dumps_verilog,
    load_verilog,
    loads_verilog,
    save_verilog,
)

HALF_ADDER = """
// half adder
module half_adder (a, b, sum, carry);
  input a, b;
  output sum, carry;
  xor g1 (sum, a, b);
  and g2 (carry, a, b);
endmodule
"""

WITH_WIRES = """
module chain (a, y);
  input a;
  output y;
  wire w1, w2;
  not g1 (w1, a);
  not g2 (w2, w1);
  not g3 (y, w2);
endmodule
"""


class TestParsing:
    def test_half_adder_structure(self):
        h = loads_verilog(HALF_ADDER)
        # 4 pads + 2 gates.
        assert h.num_modules == 6
        assert h.name == "half_adder"
        # nets: a{pad,g1,g2}, b{pad,g1,g2}, sum{pad,g1}, carry{pad,g2}.
        assert h.num_nets == 4
        assert h.module_name(0) == "pad:a"
        assert h.module_area(0) == 0.0  # pads are zero-area
        assert h.module_name(4) == "g1"
        assert h.module_area(4) == 1.0

    def test_net_membership(self):
        h = loads_verilog(HALF_ADDER)
        names = {h.net_name(j): h.pins(j) for j in range(h.num_nets)}
        # Net 'a' connects pad:a, g1 and g2 (3 pins).
        assert len(names["a"]) == 3
        assert len(names["sum"]) == 2

    def test_wires_and_comments(self):
        h = loads_verilog(WITH_WIRES)
        assert h.num_modules == 2 + 3  # pads a,y + 3 gates
        assert h.num_nets == 4  # a, w1, w2, y

    def test_block_comments(self):
        text = HALF_ADDER.replace(
            "// half adder", "/* a\n multiline\n comment */"
        )
        assert loads_verilog(text).num_nets == 4

    def test_single_net_wire_dropped(self):
        text = """
        module m (a, y);
          input a;
          output y;
          wire unused;
          buf g1 (y, a);
        endmodule
        """
        h = loads_verilog(text)
        net_names = {h.net_name(j) for j in range(h.num_nets)}
        assert "unused" not in net_names

    def test_undeclared_net_rejected(self):
        text = """
        module m (a);
          input a;
          buf g1 (a, mystery);
        endmodule
        """
        with pytest.raises(ParseError):
            loads_verilog(text)

    def test_vectors_rejected(self):
        text = "module m (a); input [3:0] a; endmodule"
        with pytest.raises(ParseError):
            loads_verilog(text)

    def test_behavioural_rejected(self):
        text = """
        module m (a);
          input a;
          assign b = a;
        endmodule
        """
        with pytest.raises(ParseError):
            loads_verilog(text)

    def test_named_connections_rejected(self):
        text = """
        module m (a, y);
          input a; output y;
          buf g1 (.out(y), .in(a));
        endmodule
        """
        with pytest.raises(ParseError):
            loads_verilog(text)

    def test_duplicate_instance_rejected(self):
        text = """
        module m (a, y);
          input a; output y;
          buf g1 (y, a);
          buf g1 (y, a);
        endmodule
        """
        with pytest.raises(ParseError):
            loads_verilog(text)

    def test_missing_endmodule(self):
        with pytest.raises(ParseError):
            loads_verilog("module m (a); input a; buf g (a, a);")

    def test_no_instances_rejected(self):
        with pytest.raises(ParseError):
            loads_verilog("module m (a); input a; endmodule")

    def test_empty_source(self):
        with pytest.raises(ParseError):
            loads_verilog("  // nothing\n")


class TestRoundtripAndFiles:
    def test_file_io(self, tmp_path):
        path = tmp_path / "ha.v"
        path.write_text(HALF_ADDER, encoding="utf-8")
        h = load_verilog(path)
        assert h.name == "ha"

    def test_dump_is_reparseable_structure(self, tmp_path):
        h = loads_verilog(WITH_WIRES)
        out = tmp_path / "dump.v"
        save_verilog(h, out, module_name="redump")
        text = out.read_text(encoding="utf-8")
        assert text.startswith("module redump")
        assert "endmodule" in text
        # Pads, wires and instances read back as they were.
        back = loads_verilog(text)
        assert back == h
        assert [back.module_name(v) for v in range(back.num_modules)] == [
            "pad:a", "pad:y", "g1", "g2", "g3"
        ]
        assert [back.net_name(j) for j in range(back.num_nets)] == [
            "a", "w1", "w2", "y"
        ]

    def test_partitioning_a_verilog_design(self):
        # Two half-adders sharing nothing: IG-Match separates them.
        text = """
        module two (a1, b1, s1, a2, b2, s2);
          input a1, b1, a2, b2;
          output s1, s2;
          xor x1 (s1, a1, b1);
          and n1 (s1, a1, b1);
          xor x2 (s2, a2, b2);
          and n2 (s2, a2, b2);
        endmodule
        """
        from repro.partitioning import ig_match

        h = loads_verilog(text)
        result = ig_match(h)
        assert result.nets_cut == 0  # the two adders are disjoint
