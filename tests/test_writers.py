"""Every text writer writes the hypergraph it was given, or refuses.

Each writer either writes text its reader reads back as an equal
hypergraph (pins, areas, net weights, and the names the format keeps)
or raises :class:`~repro.errors.ParseError` naming the first module or
net it cannot write, before any text exists, so a ``save_*`` call
leaves no partial file behind.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.hypergraph import (
    Hypergraph,
    dumps_bookshelf,
    dumps_hgr,
    dumps_net,
    dumps_verilog,
    loads_bookshelf,
    loads_hgr,
    loads_net,
    loads_verilog,
    save_bookshelf,
    save_hgr,
    save_net,
    save_verilog,
)
from tests.strategies import hypergraphs, named_hypergraphs

#: A module name with a space, a net name with ``#``.
SPACED_NAMES = Hypergraph(
    [[0, 1]], module_names=["x 2", "y"], net_names=["n#1"]
)
#: An area ``:g`` would round to 1.23457.
INEXACT_AREA = Hypergraph([[0, 1]], module_areas=[1.23456789, 1.0])
FRACTIONAL_WEIGHTS = Hypergraph([[0, 1], [1, 2]], net_weights=[1.5, 2.25])
SPACED_NET = Hypergraph([[0, 1]], net_names=["n 1"])
HASH_NET = Hypergraph([[0, 1]], net_names=["n#1"])
#: Sanitised to one Verilog wire name, ``n_1``.
CLASHING_NETS = Hypergraph([[0, 1], [1, 2]], net_names=["n 1", "n_1"])
EMPTY_NET = Hypergraph([[0, 1], []])
#: A line break in a name written into a comment.
MULTILINE_NAME = Hypergraph([[0, 1]], name="x\nnet n9 m0")


def assert_round_trip(dump, load, h, keeps_names):
    """``load(dump(h))`` equals ``h``, or ``dump`` refuses with a
    :class:`ParseError`."""
    try:
        text = dump(h)
    except ParseError as exc:
        assert str(exc).startswith("cannot write")
        return
    back = load(text)
    assert back == h
    if keeps_names and h.has_module_names:
        assert [back.module_name(v) for v in range(back.num_modules)] == [
            h.module_name(v) for v in range(h.num_modules)
        ]
    if keeps_names and h.has_net_names:
        assert [back.net_name(j) for j in range(back.num_nets)] == [
            h.net_name(j) for j in range(h.num_nets)
        ]


@settings(max_examples=300, deadline=None)
@given(named_hypergraphs())
@example(SPACED_NAMES)
@example(INEXACT_AREA)
@example(FRACTIONAL_WEIGHTS)
@example(MULTILINE_NAME)
def test_net_round_trip(h):
    assert_round_trip(dumps_net, loads_net, h, keeps_names=True)


@settings(max_examples=300, deadline=None)
@given(named_hypergraphs())
@example(INEXACT_AREA)
@example(FRACTIONAL_WEIGHTS)
@example(SPACED_NET)
@example(HASH_NET)
def test_bookshelf_round_trip(h):
    assert_round_trip(
        dumps_bookshelf, lambda texts: loads_bookshelf(*texts), h,
        keeps_names=True,
    )


@settings(max_examples=300, deadline=None)
@given(named_hypergraphs())
@example(EMPTY_NET)
@example(MULTILINE_NAME)
def test_hgr_round_trip(h):
    assert_round_trip(dumps_hgr, loads_hgr, h, keeps_names=False)


@settings(max_examples=300, deadline=None)
# Unnamed unit-area netlists with no empty net or isolated module, which
# the Verilog subset can hold, beside the arbitrary ones it mostly
# refuses.
@given(st.one_of(named_hypergraphs(), hypergraphs()))
@example(CLASHING_NETS)
def test_verilog_round_trip(h):
    assert_round_trip(dumps_verilog, loads_verilog, h, keeps_names=True)


@pytest.mark.parametrize(
    "h, dump, fault",
    [
        (SPACED_NAMES, dumps_net, "module 0 ('x 2')"),
        (FRACTIONAL_WEIGHTS, dumps_net, "net 0 ('n0')"),
        (SPACED_NET, dumps_bookshelf, "net 0 ('n 1')"),
        (FRACTIONAL_WEIGHTS, dumps_bookshelf, "net 0 ('n0')"),
        (EMPTY_NET, dumps_hgr, "net 1"),
        (CLASHING_NETS, dumps_verilog, "net 0 ('n 1')"),
    ],
)
def test_refusal_names_the_first_fault(h, dump, fault):
    with pytest.raises(ParseError, match=r"^cannot write ") as info:
        dump(h)
    assert fault in str(info.value)


@pytest.mark.parametrize(
    "h, save",
    [
        (SPACED_NAMES, save_net),
        (EMPTY_NET, save_hgr),
        (CLASHING_NETS, save_verilog),
        (SPACED_NET, lambda h, path: save_bookshelf(
            h, path, path.with_suffix(".nets"))),
    ],
    ids=["net", "hgr", "verilog", "bookshelf"],
)
def test_refused_save_writes_no_file(tmp_path, h, save):
    path = tmp_path / "out.nodes"
    with pytest.raises(ParseError):
        save(h, path)
    assert list(tmp_path.iterdir()) == []

