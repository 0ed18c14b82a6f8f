"""From-scratch reference implementations of the IG-Match sweep steps.

The sweep maintains König classes and Phase II tallies incrementally
(:meth:`repro.matching.IncrementalMatching.classify`,
``repro.partitioning.igmatch._CompletionTally``).  These oracles
recompute both from nothing at a given split, using only the matcher's
public accessors, and :func:`replay` drives a sweep that checks the
maintained state against them at every evaluated split.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import List, Optional, Tuple

from repro.hypergraph import Hypergraph
from repro.intersection import intersection_graph
from repro.matching.incremental import IncrementalMatching, VertexClass
from repro.partitioning import IGMatchConfig, ig_match_sweep
from repro.partitioning.igmatch import SplitEvaluation, _CompletionTally
from repro.partitioning.metrics import ratio_cut_cost

__all__ = [
    "L",
    "R",
    "UNASSIGNED",
    "bits",
    "classify_from_scratch",
    "evaluate_split",
    "replay",
]

L = 0
R = 1
UNASSIGNED = 2


def _alternating_mark(matcher: IncrementalMatching, from_side: str) -> set:
    """Everything alternating-reachable from ``from_side``'s unmatched
    vertices: one queue BFS over the whole crossing graph."""
    marked = set()
    queue = deque()
    for v in range(matcher.num_vertices):
        if matcher.side_of(v) == from_side and matcher.partner(v) is None:
            marked.add(v)
            queue.append(v)
    while queue:
        u = queue.popleft()
        for w in matcher.crossing_neighbors(u):
            if w in marked:
                continue
            marked.add(w)
            mate = matcher.partner(w)
            if mate is not None and mate not in marked:
                marked.add(mate)
                queue.append(mate)
    return marked


def classify_from_scratch(matcher: IncrementalMatching) -> List[int]:
    """König classes of the matcher's current split, O(V + E)."""
    reach_l = _alternating_mark(matcher, "L")
    reach_r = _alternating_mark(matcher, "R")
    codes = []
    for v in range(matcher.num_vertices):
        if matcher.side_of(v) == "L":
            if v in reach_l:
                codes.append(VertexClass.EVEN_L)
            elif v in reach_r:
                codes.append(VertexClass.ODD_R)
            else:
                codes.append(VertexClass.CORE_L)
        elif v in reach_r:
            codes.append(VertexClass.EVEN_R)
        elif v in reach_l:
            codes.append(VertexClass.ODD_L)
        else:
            codes.append(VertexClass.CORE_R)
    return codes


def evaluate_split(
    h: Hypergraph,
    codes: List[int],
    rank: int,
    matching_size: int,
    use_weights: bool = False,
) -> Tuple[Optional[SplitEvaluation], Optional[List[int]]]:
    """Phase II from scratch: complete the module partition.

    Winner nets pin their modules; unassigned modules are tried on the
    L side and on the R side and the better ratio cut wins.  Returns the
    evaluation and the module assignment (``L``/``R``/``UNASSIGNED``),
    or ``(None, None)`` when both completions leave a side empty.  With
    ``use_weights`` the cut is the numpy sum of the cut nets' weights,
    taken in net order.
    """
    n = h.num_modules
    assign = [UNASSIGNED] * n
    for net in range(h.num_nets):
        code = codes[net]
        if code == VertexClass.EVEN_L:
            for pin in h.pins(net):
                assign[pin] = L
        elif code == VertexClass.EVEN_R:
            for pin in h.pins(net):
                assign[pin] = R

    num_l = assign.count(L)
    num_r = assign.count(R)
    num_n = n - num_l - num_r

    cut_core_l = []  # unassigned modules join the L side
    cut_core_r = []
    for net in range(h.num_nets):
        pins = h.pins(net)
        if len(pins) < 2:
            continue
        in_l = in_r = in_n = 0
        for pin in pins:
            side = assign[pin]
            if side == L:
                in_l += 1
            elif side == R:
                in_r += 1
            else:
                in_n += 1
        # Core -> L: uncut iff all pins land in L (in_r == 0) or all in R.
        if not (in_r == 0 or (in_l == 0 and in_n == 0)):
            cut_core_l.append(net)
        if not (in_l == 0 or (in_r == 0 and in_n == 0)):
            cut_core_r.append(net)

    if use_weights:
        import numpy as np

        weights = np.asarray(h.net_weights, dtype=float)
        cut_if_core_l = float(weights[cut_core_l].sum())
        cut_if_core_r = float(weights[cut_core_r].sum())
    else:
        cut_if_core_l = len(cut_core_l)
        cut_if_core_r = len(cut_core_r)

    ratio_core_l = ratio_cut_cost(cut_if_core_l, num_l + num_n, num_r)
    ratio_core_r = ratio_cut_cost(cut_if_core_r, num_l, num_r + num_n)
    if ratio_core_l == float("inf") and ratio_core_r == float("inf"):
        return None, None

    core_to_l = ratio_core_l <= ratio_core_r
    evaluation = SplitEvaluation(
        rank=rank,
        matching_size=matching_size,
        nets_cut=cut_if_core_l if core_to_l else cut_if_core_r,
        ratio_cut=ratio_core_l if core_to_l else ratio_core_r,
        assign_core_to_l=core_to_l,
    )
    return evaluation, assign


def bits(evaluation):
    """An evaluation with its floats as their IEEE-754 bytes."""
    if evaluation is None:
        return None
    return (
        evaluation.rank,
        evaluation.matching_size,
        struct.pack("<d", evaluation.nets_cut),
        struct.pack("<d", evaluation.ratio_cut),
        evaluation.assign_core_to_l,
    )


def replay(h, order, stride=1, warm=None, use_weights=False):
    """Drive the matcher and tally as the sweep does, checking every
    evaluated split against the oracles; return the evaluations."""
    graph = intersection_graph(h, "paper")
    matcher = IncrementalMatching(graph)
    n = h.num_nets
    start, stop = 0, n - 1
    if warm is not None:
        matcher.jump_start(
            [order[i] for i in range(warm.lo - 1)], warm.matching_seed
        )
        start, stop = warm.lo - 1, warm.hi
    previous = [VertexClass.EVEN_L] * n
    tally = None
    evaluations = []
    for index in range(start, stop):
        matcher.move_to_right(order[index])
        rank = index + 1
        if rank % stride and rank != n - 1:
            continue
        codes = matcher.classify()
        assert codes == classify_from_scratch(matcher), rank
        assert sorted(matcher.reclassified) == [
            v for v in range(n) if codes[v] != previous[v]
        ], rank
        previous = codes
        if tally is None:
            tally = _CompletionTally(h, codes, use_weights)
        else:
            tally.update(matcher.reclassified, codes)
        evaluation = tally.evaluate(rank, matcher.matching_size)
        expected, assign = evaluate_split(
            h, codes, rank, matcher.matching_size, use_weights
        )
        assert bits(evaluation) == bits(expected), rank
        if assign is not None:
            assert tally.assign == assign, rank
        if evaluation is not None:
            evaluations.append(evaluation)

    config = IGMatchConfig(split_stride=stride, use_net_weights=use_weights)
    swept, _ = ig_match_sweep(h, config, order=order, graph=graph, warm=warm)
    assert [bits(e) for e in swept] == [bits(e) for e in evaluations]
    return evaluations
