"""Fuzz tests: parsers must fail with ParseError, never crash.

Any text thrown at a netlist parser should produce either a valid
hypergraph or a :class:`ParseError` with a sensible message — no
IndexError/KeyError/ValueError escapes.
"""

import pytest
from hypothesis import example, given, settings

from repro.errors import ParseError, ReproError
from repro.hypergraph import (
    loads_bookshelf,
    loads_hgr,
    loads_net,
    loads_verilog,
)
from tests.strategies import netlist_texts

_any_text = netlist_texts()


@settings(max_examples=150, deadline=None)
@given(_any_text)
def test_net_parser_total(text):
    try:
        loads_net(text)
    except ParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(_any_text)
@example("1 1 1 \n -3 1")
def test_hgr_parser_total(text):
    try:
        loads_hgr(text)
    except ParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(_any_text)
def test_verilog_parser_total(text):
    try:
        loads_verilog(text)
    except ParseError:
        pass


@settings(max_examples=100, deadline=None)
@given(_any_text, _any_text)
def test_bookshelf_parser_total(nodes_text, nets_text):
    try:
        loads_bookshelf(nodes_text, nets_text)
    except ParseError:
        pass


@settings(max_examples=100, deadline=None)
@given(_any_text)
def test_errors_are_catchable_as_repro_error(text):
    """The documented catch-all contract."""
    for parser in (loads_net, loads_hgr, loads_verilog):
        try:
            parser(text)
        except ReproError:
            pass
