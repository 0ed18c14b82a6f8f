"""Run the doctests embedded in public docstrings."""

import doctest

import pytest

import repro
import repro.graph.graph
import repro.hypergraph.builder
import repro.hypergraph.hypergraph
import repro.partitioning.partition
import tests.bipartite


@pytest.mark.parametrize(
    "module",
    [
        repro,
        repro.graph.graph,
        repro.hypergraph.builder,
        repro.hypergraph.hypergraph,
        repro.partitioning.partition,
        tests.bipartite,
    ],
    ids=lambda m: m.__name__,
)
def test_doctests(module):
    failures, tested = doctest.testmod(
        module, verbose=False, raise_on_error=False
    )
    assert tested > 0, f"no doctests found in {module.__name__}"
    assert failures == 0
