"""Phase II as the sweep maintains it must match the scalar reference.

The sweep keeps per-module and per-net tallies across splits and, with
net weights, sums cut-net weights as a numpy masked sum over its
maintained cut masks.  The reference (:func:`tests.oracles.
evaluate_split`) recounts every pin at every split.  The hypothesis
version over random orders lives in ``tests/test_igmatch_oracles.py``;
these are the fixed-instance checks on spectral orders.
"""

import random

import pytest

from repro.hypergraph import Hypergraph
from repro.intersection import intersection_graph
from repro.matching import IncrementalMatching
from repro.partitioning import IGMatchConfig, ig_match
from repro.spectral import spectral_ordering
from tests.conftest import random_hypergraph
from tests.oracles import (
    UNASSIGNED,
    classify_from_scratch,
    evaluate_split,
    replay,
)


@pytest.mark.parametrize("seed", range(8))
def test_vectorised_equals_reference(seed):
    h = random_hypergraph(seed, num_modules=18, num_nets=22)
    order = spectral_ordering(intersection_graph(h, "paper"), seed=0)
    replay(h, order)
    rng = random.Random(seed)
    weighted = Hypergraph(
        [h.pins(j) for j in range(h.num_nets)],
        num_modules=h.num_modules,
        net_weights=[rng.uniform(0.0, 4.0) for _ in range(h.num_nets)],
    )
    replay(weighted, order, use_weights=True)


def test_degenerate_nets_agree():
    """Nets of size 0/1 must be ignored identically by both paths."""
    h = Hypergraph([[0, 1], [2], [], [1, 2], [0, 2]], num_modules=3)
    replay(h, [0, 3, 1, 2, 4])


def test_large_circuit_same_final_partition(medium_circuit):
    """End-to-end: a sweep that classifies and completes every split
    from scratch picks the partition ig_match returns."""
    h = medium_circuit
    graph = intersection_graph(h, "paper")
    order = spectral_ordering(graph, seed=0)
    matcher = IncrementalMatching(graph)
    best = None
    for rank, net in enumerate(order[:-1], start=1):
        matcher.move_to_right(net)
        evaluation, assign = evaluate_split(
            h, classify_from_scratch(matcher), rank, matcher.matching_size
        )
        if evaluation is not None and (
            best is None
            or (evaluation.ratio_cut, rank) < (best[0].ratio_cut, best[0].rank)
        ):
            best = (evaluation, assign)
    evaluation, assign = best
    core = 0 if evaluation.assign_core_to_l else 1
    sides = [core if a == UNASSIGNED else a for a in assign]

    fast = ig_match(h, IGMatchConfig(seed=0))
    assert list(fast.partition.sides) == sides
    assert fast.nets_cut == evaluation.nets_cut
