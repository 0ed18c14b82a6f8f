"""Differential tests: the IG-Match sweep's maintained state against
from-scratch oracles at every evaluated split (see
:func:`tests.oracles.replay`), over random move orders, split strides
and mid-sweep jump starts with stale seeds.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hypergraph import Hypergraph
from repro.intersection import intersection_graph
from repro.matching import IncrementalMatching
from repro.partitioning.igmatch import SweepWarmStart
from tests.oracles import bits, replay
from tests.strategies import adversarial_csr_hypergraphs, hypergraphs


def sweepable(h):
    return h.num_nets >= 2 and h.num_modules >= 2


@settings(max_examples=60, deadline=None)
@given(
    h=hypergraphs(max_modules=12, max_nets=16),
    stride=st.integers(1, 6),
    jump_at_start=st.booleans(),
    data=st.data(),
)
def test_random_orders_match_oracles(h, stride, jump_at_start, data):
    """Random orders and strides; optionally a jump start at ``lo = 1``
    (an empty right set) and, at some splits, a second classify()."""
    n = h.num_nets
    order = data.draw(st.permutations(range(n)))
    warm = SweepWarmStart(lo=1, hi=n - 1) if jump_at_start else None
    repeat = data.draw(st.sets(st.integers(1, n - 1)))
    replay(h, order, stride=stride, warm=warm, repeat=repeat)


@settings(max_examples=60, deadline=None)
@given(
    h=adversarial_csr_hypergraphs(),
    stride=st.sampled_from([1, 3]),
    data=st.data(),
)
def test_adversarial_hypergraphs_match_oracles(h, stride, data):
    assume(sweepable(h))
    order = data.draw(st.permutations(range(h.num_nets)))
    replay(h, order, stride=stride)


@settings(max_examples=60, deadline=None)
@given(
    h=hypergraphs(min_nets=3, max_modules=12, max_nets=16),
    data=st.data(),
)
def test_jump_start_with_stale_seed(h, data):
    """A mid-sweep jump start seeded with the matching of a *different*
    split (so some pairs no longer fit) plus pairs that never did."""
    n = h.num_nets
    order = data.draw(st.permutations(range(n)))
    lo = data.draw(st.integers(1, n - 1))
    hi = data.draw(st.integers(lo, n - 1))
    stale_rank = data.draw(st.integers(0, n - 1))
    source = IncrementalMatching(intersection_graph(h, "paper"))
    for net in order[:stale_rank]:
        source.move_to_right(net)
    seed = [(v, p) for v, p in source.matching_dict().items() if v < p]
    seed += data.draw(
        st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)),
                 max_size=3)
    )
    random.Random(stale_rank).shuffle(seed)
    warm = SweepWarmStart(lo=lo, hi=hi, matching_seed=tuple(seed))
    warm_evaluations = replay(h, order, warm=warm)
    cold = {e.rank: bits(e) for e in replay(h, order)}
    assert [bits(e) for e in warm_evaluations] == [
        cold[e.rank] for e in warm_evaluations
    ]


def test_source_that_kept_its_mark_reaches_new_neighbours():
    """Nets z, u, x, y, t intersect as z-x, u-x, x-y, y-t.  With z, u, t
    on R, net x is matched and reached from R's unmatched net; moving x
    to R leaves it unmatched, so it keeps its mark as a source, and its
    new arc must reach y and t, whose side and mate did not change."""
    h = Hypergraph(
        [[0, 4], [1, 5], [0, 1, 2], [2, 3], [3, 6]], num_modules=7
    )
    replay(h, [0, 1, 4, 2, 3])
