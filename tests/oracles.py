"""Reference implementations the optimised code is checked against.

The IG-Match sweep maintains König classes and Phase II tallies
incrementally (:meth:`repro.matching.IncrementalMatching.classify`,
``repro.partitioning.igmatch._CompletionTally``).  These oracles
recompute both from nothing at a given split, using only the matcher's
public accessors, and :func:`replay` drives a sweep that checks the
maintained state against them at every evaluated split.
:class:`UnprunedMatching` is the matcher with its augmenting search as
first written, which skips no vertex that R's reach marks rule out.

:class:`ReferenceFMPass` is the FM pass as first written, before
:meth:`repro.partitioning.FMEngine.run_pass` selected moves by the
balance rule's ``(side, area)`` verdicts: a cell predicate checked over
sorted gain keys and copied buckets, per-net gain adjustment helpers,
and a recount of the moved cell's gain.

:class:`DictGraph` is the graph as first written, one dict per vertex
with weights added in call order; :meth:`repro.graph.Graph.from_edges`
must build the same rows, bit for bit.
:func:`reference_connected_components` is the component listing as
first written, one breadth-first search per component, which
:func:`repro.graph.connected_components` must equal.

The array-backed pipeline steps have their first, loop-based versions
here: the per-pair intersection build (:func:`shared_module_map` plus
one weighting call per pair, callables accepted, on a
:class:`DictGraph`), the COO adjacency
assembly, the shifted Laplacian built as ``c·I - (D - A)``, the per-pin
count of the FM gain state (at engine set-up and after each pass's
revert) and the completion tally's first state replayed net by net.
:func:`pipeline` runs code with them swapped in, so a whole
partitioner run can be compared bit for bit against the shipped
steps.  :class:`LinkedGainBuckets` is the
paper-era bucket list the FM bucket replay test checks against.

:func:`reference_loads_net` is the NET reader as first written, on a
:class:`~repro.hypergraph.HypergraphBuilder`.
"""

from __future__ import annotations

import contextlib
import math
import struct
from collections import deque
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
import scipy.sparse as sp

import repro.graph.laplacian as laplacian
from repro.errors import ParseError, PartitionError
from repro.graph import Graph
from repro.hypergraph import Hypergraph, HypergraphBuilder
from repro.intersection import get_weighting, intersection_graph
from repro.matching.incremental import IncrementalMatching, VertexClass
from repro.obs import incr, span
from repro.partitioning import IGMatchConfig, ig_match_sweep
from repro.partitioning.igmatch import SplitEvaluation, _CompletionTally
from repro.partitioning.metrics import ratio_cut_cost
from tests.bipartite import decompose

__all__ = [
    "DictGraph",
    "IMPLEMENTATIONS",
    "L",
    "LinkedGainBuckets",
    "R",
    "ReferenceFMPass",
    "UNASSIGNED",
    "UnprunedMatching",
    "bits",
    "classify_from_scratch",
    "evaluate_split",
    "pipeline",
    "reference_adjacency_matrix",
    "reference_connected_components",
    "reference_fm_gain_state",
    "reference_intersection_graph",
    "reference_shifted_laplacian",
    "reference_tally_init",
    "replay",
    "shared_module_map",
]

L = 0
R = 1
UNASSIGNED = 2


class UnprunedMatching(IncrementalMatching):
    """The shipped matcher with the augmenting search as first written:
    a BFS that ignores ``ruled_out`` and so walks R's marked reach too.
    It must find the same path as the shipped search, at more visits."""

    def _augment_from(self, start: int, ruled_out: List[bool]) -> bool:
        if self._match[start] != -1:
            return False
        self.augmentation_attempts += 1
        match = self._match
        side = self._side
        adjacency = self._adjacency

        parent: Dict[int, int] = {start: -1}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            x_side = side[x]
            for y in adjacency[x]:
                if side[y] == x_side or y in parent or match[x] == y:
                    continue
                parent[y] = x
                if match[y] == -1:
                    path = [y]
                    node = x
                    while node != -1:
                        path.append(node)
                        node = parent[node]
                    before = self._before
                    for node in path:
                        if node not in before:
                            before[node] = (side[node], match[node])
                    for i in range(0, len(path) - 1, 2):
                        a, b = path[i], path[i + 1]
                        match[a] = b
                        match[b] = a
                    self.augmentations += 1
                    self.search_visits += len(parent)
                    return True
                partner = match[y]
                if partner not in parent:
                    parent[partner] = y
                    queue.append(partner)
        self.search_visits += len(parent)
        return False


def classify_from_scratch(matcher: IncrementalMatching) -> List[int]:
    """König classes of the matcher's current split: one
    :func:`tests.bipartite.decompose` of its crossing graph, O(V + E)."""
    d = decompose(
        matcher.left_vertices(),
        matcher.right_vertices(),
        matcher.crossing_neighbors,
        matcher.partner,
    )
    codes = [-1] * matcher.num_vertices
    for members, code in (
        (d.even_left, VertexClass.EVEN_L),
        (d.odd_left, VertexClass.ODD_L),
        (d.even_right, VertexClass.EVEN_R),
        (d.odd_right, VertexClass.ODD_R),
        (d.core_left, VertexClass.CORE_L),
        (d.core_right, VertexClass.CORE_R),
    ):
        for v in members:
            codes[v] = code
    return codes


def evaluate_split(
    h: Hypergraph,
    codes: List[int],
    rank: int,
    matching_size: int,
) -> Tuple[Optional[SplitEvaluation], Optional[List[int]]]:
    """Phase II from scratch: complete the module partition.

    Winner nets pin their modules; unassigned modules are tried on the
    L side and on the R side and the better ratio cut wins.  Returns the
    evaluation and the module assignment (``L``/``R``/``UNASSIGNED``),
    or ``(None, None)`` when both completions leave a side empty.
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
    """An evaluation with its ratio cut as its IEEE-754 bytes."""
    if evaluation is None:
        return None
    return (
        evaluation.rank,
        evaluation.matching_size,
        evaluation.nets_cut,
        struct.pack("<d", evaluation.ratio_cut),
        evaluation.assign_core_to_l,
    )


def replay(h, order, stride=1, warm=None, repeat=()):
    """Drive the matcher and tally as the sweep does, checking every
    evaluated split against the oracles; return the evaluations.

    At the ranks in ``repeat`` the matcher classifies twice; the second
    call must return the same codes and reclassify nothing."""
    graph = intersection_graph(h, "paper")
    matcher = IncrementalMatching(graph)
    n = h.num_nets
    start, stop = 0, n - 1
    if warm is not None:
        matcher.jump_start([order[i] for i in range(warm.lo - 1)])
        start, stop = warm.lo - 1, warm.hi
    previous = [VertexClass.EVEN_L] * n
    tally = None
    evaluations = []
    best = best_sides = None
    for index in range(start, stop):
        matcher.move_to_right(order[index])
        rank = index + 1
        if rank % stride and rank != n - 1:
            continue
        codes = matcher.classify()
        reclassified = matcher.reclassified
        assert codes == classify_from_scratch(matcher), rank
        assert sorted(reclassified) == [
            v for v in range(n) if codes[v] != previous[v]
        ], rank
        # classify() returns its live list, so the codes are copied to
        # compare the next split's against.
        previous = list(codes)
        if rank in repeat:
            assert matcher.classify() is codes, rank
            assert codes == previous, rank
            assert matcher.reclassified == [], rank
        if tally is None:
            tally = _CompletionTally(h, codes)
        else:
            tally.update(reclassified, codes)
        evaluation = tally.evaluate(rank, matcher.matching_size)
        expected, assign = evaluate_split(
            h, codes, rank, matcher.matching_size
        )
        assert bits(evaluation) == bits(expected), rank
        if assign is not None:
            assert tally.assign == assign, rank
        if evaluation is not None:
            evaluations.append(evaluation)
            if best is None or (evaluation.ratio_cut, rank) < (
                best.ratio_cut, best.rank
            ):
                best = evaluation
                core = L if evaluation.assign_core_to_l else R
                best_sides = [
                    core if a == UNASSIGNED else a for a in assign
                ]

    config = IGMatchConfig(split_stride=stride)
    swept, partition = ig_match_sweep(
        h, config, order=order, graph=graph, warm=warm
    )
    assert [bits(e) for e in swept] == [bits(e) for e in evaluations]
    # The partition is the best split's assignment, core placed.
    assert (partition is None and best is None) or (
        list(partition.sides) == best_sides
    )
    return evaluations


# ----------------------------------------------------------------------
# FM pass
# ----------------------------------------------------------------------
class _ReferenceGainBuckets:
    """gain -> set of cells; every walk sorts the gains and copies each
    bucket before iterating it."""

    def __init__(self) -> None:
        self._buckets = {}

    def insert(self, cell: int, gain: int) -> None:
        self._buckets.setdefault(gain, set()).add(cell)

    def remove(self, cell: int, gain: int) -> None:
        bucket = self._buckets[gain]
        bucket.remove(cell)
        if not bucket:
            del self._buckets[gain]

    def update(self, cell: int, old_gain: int, delta: int) -> int:
        if delta == 0:
            return old_gain
        self.remove(cell, old_gain)
        self.insert(cell, old_gain + delta)
        return old_gain + delta

    def iter_best_first(self):
        for gain in sorted(self._buckets, reverse=True):
            for cell in tuple(self._buckets[gain]):
                yield gain, cell


class _ReferenceSideBuckets:
    """One bucket structure per side, asked for the best cell a cell
    predicate accepts."""

    def __init__(self) -> None:
        self._buckets = (_ReferenceGainBuckets(), _ReferenceGainBuckets())
        self._side_of = {}

    def insert(self, cell: int, gain: int, side: int) -> None:
        self._side_of[cell] = side
        self._buckets[side].insert(cell, gain)

    def remove(self, cell: int, gain: int) -> None:
        self._buckets[self._side_of.pop(cell)].remove(cell, gain)

    def update(self, cell: int, old_gain: int, delta: int) -> int:
        return self._buckets[self._side_of[cell]].update(
            cell, old_gain, delta
        )

    def best_feasible(self, side: int, feasible):
        for gain, cell in self._buckets[side].iter_best_first():
            if feasible(cell):
                return gain, cell
        return None

    def tied_feasible(self, side: int, feasible, limit: int = 8):
        best_gain = None
        cells = []
        for gain, cell in self._buckets[side].iter_best_first():
            if best_gain is not None and gain < best_gain:
                break
            if feasible(cell):
                best_gain = gain
                cells.append(cell)
                if len(cells) >= limit:
                    break
        if best_gain is None:
            return None
        return best_gain, cells


class ReferenceFMPass:
    """The FM pass as first written, on a private copy of an engine's
    state.

    ``run_pass`` takes a cell predicate.  ``moves`` logs every move in
    order, the pass's own and its reverts alike.
    """

    def __init__(self, engine) -> None:
        self.h = engine.h
        self.sides = list(engine.sides)
        self.side_count = list(engine.side_count)
        self.side_area = list(engine.side_area)
        self.pin_count = [list(counts) for counts in engine.pin_count]
        self.cut = engine.cut
        self.gains = list(engine.gains)
        self.last_pass = dict(engine.last_pass)
        self.moves: List[int] = []

    def _compute_gain(self, cell: int) -> int:
        side = self.sides[cell]
        other = 1 - side
        gain = 0
        for net in self.h.nets_of(cell):
            counts = self.pin_count[net]
            if counts[side] + counts[other] < 2:
                continue
            if counts[side] == 1:
                gain += 1
            if counts[other] == 0:
                gain -= 1
        return gain

    def move(self, cell: int, buckets=None, locked=None) -> None:
        self.moves.append(cell)
        from_side = self.sides[cell]
        to_side = 1 - from_side
        for net in self.h.nets_of(cell):
            counts = self.pin_count[net]
            if counts[0] + counts[1] < 2:
                counts[from_side] -= 1
                counts[to_side] += 1
                continue
            if counts[to_side] == 0:
                self.cut += 1
                self._adjust_net_gains(net, +1, buckets, locked, cell)
            elif counts[to_side] == 1:
                self._adjust_single(net, to_side, -1, buckets, locked, cell)
            counts[from_side] -= 1
            counts[to_side] += 1
            if counts[from_side] == 0:
                self.cut -= 1
                self._adjust_net_gains(net, -1, buckets, locked, cell)
            elif counts[from_side] == 1:
                self._adjust_single(
                    net, from_side, +1, buckets, locked, cell
                )
        self.sides[cell] = to_side
        self.side_count[from_side] -= 1
        self.side_count[to_side] += 1
        area = self.h.module_area(cell)
        self.side_area[from_side] -= area
        self.side_area[to_side] += area
        self.gains[cell] = self._compute_gain(cell)

    def _shift_gain(self, pin, delta, buckets, locked) -> None:
        if locked is not None and locked[pin]:
            self.gains[pin] += delta
        elif buckets is not None:
            self.gains[pin] = buckets.update(pin, self.gains[pin], delta)
        else:
            self.gains[pin] += delta

    def _adjust_net_gains(self, net, delta, buckets, locked, mover) -> None:
        for pin in self.h.pins(net):
            if pin != mover:
                self._shift_gain(pin, delta, buckets, locked)

    def _adjust_single(self, net, side, delta, buckets, locked, mover):
        for pin in self.h.pins(net):
            if pin != mover and self.sides[pin] == side:
                self._shift_gain(pin, delta, buckets, locked)
                return

    def lookahead_gain(self, cell: int, locked) -> int:
        side = self.sides[cell]
        other = 1 - side
        gain2 = 0
        for net in self.h.nets_of(cell):
            counts = self.pin_count[net]
            if counts[side] + counts[other] < 2:
                continue
            if counts[side] == 2 and any(
                p != cell and self.sides[p] == side and not locked[p]
                for p in self.h.pins(net)
            ):
                gain2 += 1
            if counts[other] == 1:
                target = next(
                    p for p in self.h.pins(net) if self.sides[p] == other
                )
                if not locked[target]:
                    gain2 -= 1
        return gain2

    def _value(self, objective: str, cut: int, u: int, w: int) -> float:
        if objective == "cut":
            return float(cut)
        return ratio_cut_cost(cut, u, w)

    def run_pass(self, feasible, objective="cut", lookahead=1):
        n = self.h.num_modules
        locked = [False] * n
        buckets = _ReferenceSideBuckets()
        for v in range(n):
            buckets.insert(v, self.gains[v], self.sides[v])
        sequence: List[int] = []
        best_prefix = 0
        best_value = self._value(objective, self.cut, *self.side_count)
        while True:
            candidates = []
            for side in (0, 1):
                if lookahead >= 2:
                    found = buckets.tied_feasible(side, feasible)
                    if found is None:
                        continue
                    gain, tied = found
                    cell = max(
                        tied, key=lambda c: self.lookahead_gain(c, locked)
                    )
                else:
                    found = buckets.best_feasible(side, feasible)
                    if found is None:
                        continue
                    gain, cell = found
                u, w = self.side_count
                if side == 0:
                    u, w = u - 1, w + 1
                else:
                    u, w = u + 1, w - 1
                value = self._value(objective, self.cut - gain, u, w)
                candidates.append((value, -gain, cell))
            if not candidates:
                break
            _, neg_gain, chosen = min(candidates)
            buckets.remove(chosen, -neg_gain)
            locked[chosen] = True
            self.move(chosen, buckets, locked)
            sequence.append(chosen)
            value = self._value(objective, self.cut, *self.side_count)
            if value < best_value:
                best_value = value
                best_prefix = len(sequence)
        for cell in reversed(sequence[best_prefix:]):
            self.move(cell)
        self.last_pass = {
            "moved": len(sequence),
            "kept": best_prefix,
            "best_value": best_value,
        }
        return best_prefix, best_value


# ----------------------------------------------------------------------
# The dict graph
# ----------------------------------------------------------------------
class DictGraph:
    """A weighted graph as one ``{neighbour: weight}`` dict per vertex.

    :meth:`add_edge` adds ``weight`` to the pair, creating it at the end
    of both rows when new, so each row keeps first-insertion order and
    each weight sums left to right in call order.  It reads like a
    :class:`~repro.graph.Graph` (:meth:`neighbor_weights`,
    :meth:`edges`), and :meth:`to_graph` hands the same rows over as one.
    """

    def __init__(self, num_vertices: int) -> None:
        self.adj: List[Dict[int, float]] = [{} for _ in range(num_vertices)]
        self.total_weight = 0.0
        self._pairs: List[Tuple[int, int]] = []  # in first-insertion order

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return len(self._pairs)

    def add_edge(self, u: int, v: int, weight: float) -> None:
        if v not in self.adj[u]:
            self._pairs.append((u, v))
            self.adj[u][v] = 0.0
            self.adj[v][u] = 0.0
        self.adj[u][v] += weight
        self.adj[v][u] += weight
        self.total_weight += weight

    def neighbor_weights(self, u: int):
        return iter(self.adj[u].items())

    def edges(self):
        for u, nbrs in enumerate(self.adj):
            for v, w in nbrs.items():
                if u < v:
                    yield (u, v, w)

    def to_graph(self) -> Graph:
        """The shipped graph of the same rows: each pair once, in
        first-insertion order, with its summed weight."""
        return Graph.from_edges(
            self.num_vertices,
            [u for u, _ in self._pairs],
            [v for _, v in self._pairs],
            [self.adj[u][v] for u, v in self._pairs],
        )


def reference_connected_components(g: Graph) -> List[List[int]]:
    """Components by breadth-first search from each unreached vertex in
    turn, each sorted: ordered by smallest vertex, isolated vertices
    as singletons."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    reached = [False] * g.num_vertices
    components = []
    for start in range(g.num_vertices):
        if reached[start]:
            continue
        reached[start] = True
        component = [start]
        for u in component:  # the list doubles as the BFS queue
            for v in indices[indptr[u]:indptr[u + 1]]:
                if not reached[v]:
                    reached[v] = True
                    component.append(v)
        components.append(sorted(component))
    return components


# ----------------------------------------------------------------------
# Intersection graph, adjacency matrix and FM initialisation
# ----------------------------------------------------------------------
def shared_module_map(h: Hypergraph) -> Dict[Tuple[int, int], List[int]]:
    """Map each intersecting net pair ``(a, b)`` with a < b to the shared
    modules, ascending; the keys are exactly the edges of ``G'``."""
    shared: Dict[Tuple[int, int], List[int]] = {}
    for module, nets in h.iter_modules():
        for i, net_a in enumerate(nets):
            for net_b in nets[i + 1:]:
                shared.setdefault((net_a, net_b), []).append(module)
    return shared


def reference_intersection_graph(
    h: Hypergraph, weighting="paper"
) -> DictGraph:
    """``G'`` built pair by pair on a :class:`DictGraph`: one weighting
    call per shared-module list, edges added in first-encounter order.
    ``weighting`` is a scheme name or a ``(h, net_a, net_b, shared) ->
    float`` callable."""
    if isinstance(weighting, str):
        weighting = get_weighting(weighting)
    with span(
        "intersection.build", nets=h.num_nets, modules=h.num_modules
    ) as sp_:
        g = DictGraph(h.num_nets)
        for (net_a, net_b), shared in shared_module_map(h).items():
            weight = weighting(h, net_a, net_b, shared)
            if weight > 0:
                g.add_edge(net_a, net_b, weight)
        sp_.set(edges=g.num_edges)
        incr("intersection.builds")
        incr("intersection.edges", g.num_edges)
    return g


def reference_adjacency_matrix(g: Graph) -> sp.csr_matrix:
    """``A`` assembled from COO triples, one Python append per entry."""
    n = g.num_vertices
    rows, cols, vals = [], [], []
    for u, v, w in g.edges():
        rows.append(u)
        cols.append(v)
        vals.append(w)
        rows.append(v)
        cols.append(u)
        vals.append(w)
    return sp.csr_matrix(
        (np.asarray(vals, dtype=float), (rows, cols)), shape=(n, n)
    )


def reference_fm_gain_state(engine) -> None:
    """``FMEngine._count_gain_state`` with a Python loop over every pin
    and one :meth:`~repro.partitioning.FMEngine._compute_gain` per
    cell."""
    h = engine.h
    engine.pin_count = [[0, 0] for _ in range(h.num_nets)]
    for net, pins in h.iter_nets():
        for pin in pins:
            engine.pin_count[net][engine.sides[pin]] += 1
    engine.cut = sum(
        1 for counts in engine.pin_count if counts[0] > 0 and counts[1] > 0
    )
    engine.gains = [engine._compute_gain(v) for v in range(h.num_modules)]


def reference_tally_init(tally, h: Hypergraph, codes: List[int]) -> None:
    """``_CompletionTally.__init__`` as a replay: start from "no
    winners", every module in the core, and run
    :meth:`~repro.partitioning.igmatch._CompletionTally.update` over
    every net."""
    m = h.num_nets
    tally._pins = [h.pins(net) for net in range(m)]
    tally._nets_of = [h.nets_of(v) for v in range(h.num_modules)]
    tally._net_pins_to = [UNASSIGNED] * m
    tally._pinned_l = [0] * h.num_modules
    tally._pinned_r = [0] * h.num_modules
    tally.assign = [UNASSIGNED] * h.num_modules
    tally._side_count = [0, 0, h.num_modules]
    tally._pin_count = [0] * (3 * m)
    for net, pins in enumerate(tally._pins):
        tally._pin_count[3 * net + UNASSIGNED] = len(pins)
    tally._cut_core_l = [False] * m
    tally._cut_core_r = [False] * m
    tally._cuts = [0, 0]
    tally.update(range(m), codes)


def reference_shifted_laplacian(g: Graph) -> Tuple[sp.csr_matrix, float]:
    """``c·I - Q`` assembled as the scaled identity minus
    :func:`~repro.graph.laplacian_matrix`, itself ``D - A``."""
    degrees = g.degrees()
    shift = 2.0 * max(degrees, default=0.0) + 1.0
    identity = sp.identity(g.num_vertices, format="csr")
    return (identity * shift - laplacian.laplacian_matrix(g)).tocsr(), shift


#: Test ids for the two implementations of the steps above: ``"dict"``
#: runs code under :func:`pipeline` with the references swapped in
#: (dict-of-dict graphs and per-pin loops), ``"csr"`` runs the shipped
#: array-backed steps.
IMPLEMENTATIONS = ("dict", "csr")


@contextlib.contextmanager
def pipeline(implementation: str):
    """Run the block on the ``implementation`` of the pipeline steps.

    ``"dict"`` patches the references in where the pipeline calls the
    steps: the intersection build in IG-Match and IG-Vote, adjacency
    assembly under every Laplacian, the Fiedler solver's shifted
    Laplacian, the FM engine's gain-state count (set-up and revert)
    and the IG-Match completion tally's first state.
    """
    if implementation not in IMPLEMENTATIONS:
        raise ValueError(f"unknown implementation {implementation!r}")
    if implementation == "csr":
        yield
        return
    import repro.partitioning.igmatch as igmatch
    import repro.partitioning.igvote as igvote
    import repro.spectral.fiedler as fiedler
    from repro.partitioning.fm import FMEngine

    def dict_intersection_graph(h, weighting="paper"):
        return reference_intersection_graph(h, weighting).to_graph()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(igmatch, "intersection_graph", dict_intersection_graph)
        patch.setattr(igvote, "intersection_graph", dict_intersection_graph)
        patch.setattr(
            laplacian, "adjacency_matrix", reference_adjacency_matrix
        )
        patch.setattr(
            fiedler, "_shifted_laplacian", reference_shifted_laplacian
        )
        patch.setattr(
            FMEngine, "_count_gain_state", reference_fm_gain_state
        )
        patch.setattr(_CompletionTally, "__init__", reference_tally_init)
        yield


# ----------------------------------------------------------------------
# The classic linked bucket list
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("cell", "prev", "next")

    def __init__(self, cell: int):
        self.cell = cell
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None


class LinkedGainBuckets:
    """Gain buckets as a doubly-linked-list array with a max pointer.

    FM's linear-time-per-pass claim rests on this structure: an array
    of lists indexed by gain (bounded by ±p_max, the maximum cell
    degree), a max-gain pointer that only moves down by scanning and up
    by O(1) on insert, and O(1) unlink/relink per gain update.

    ``max_gain`` bounds |gain|; inserts outside the bound grow the
    array, each growth counted in :attr:`grows`.  Within a bucket,
    cells pop in LIFO order — the classic implementation's behaviour,
    which differs from the set order by which
    :class:`repro.partitioning.fm.GainBuckets` breaks gain ties, so the
    two agree on the best gain, not on the cell.
    """

    def __init__(self, max_gain: int = 16):
        if max_gain < 1:
            raise PartitionError(f"max_gain must be >= 1, got {max_gain}")
        self._bound = max_gain
        self._heads: List[Optional[_Node]] = [None] * (2 * max_gain + 1)
        self._nodes: Dict[int, _Node] = {}
        self._gains: Dict[int, int] = {}
        self._max_index: Optional[int] = None
        self._count = 0
        #: O(bound) reallocations made because the preset bound was
        #: too small.
        self.grows = 0

    # ------------------------------------------------------------------
    def _index(self, gain: int) -> int:
        if abs(gain) > self._bound:
            self._grow(abs(gain))
        return gain + self._bound

    def _grow(self, needed: int) -> None:
        self.grows += 1
        new_bound = max(needed, 2 * self._bound)
        shift = new_bound - self._bound
        self._heads = (
            [None] * shift + self._heads + [None] * shift
        )
        if self._max_index is not None:
            self._max_index += shift
        self._bound = new_bound

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    @classmethod
    def from_gains(cls, gains, max_gain: Optional[int] = None
                   ) -> "LinkedGainBuckets":
        """Bulk-build from a dense gain vector (cell ``i`` ↦ ``gains[i]``).

        Exactly equivalent to inserting cells ``0..n-1`` in ascending
        order — same LIFO bucket order, same ``iter_best_first``
        sequence — but the bound is preset from the data, so the build
        never grows the array.
        """
        gain_list = [int(g) for g in gains]
        if max_gain is None:
            max_gain = max((abs(g) for g in gain_list), default=0)
        buckets = cls(max_gain=max(int(max_gain), 1))
        for cell, gain in enumerate(gain_list):
            buckets.insert(cell, gain)
        return buckets

    def insert(self, cell: int, gain: int) -> None:
        if cell in self._nodes:
            raise PartitionError(f"cell {cell} already bucketed")
        index = self._index(gain)
        node = _Node(cell)
        head = self._heads[index]
        node.next = head
        if head is not None:
            head.prev = node
        self._heads[index] = node
        self._nodes[cell] = node
        self._gains[cell] = gain
        self._count += 1
        if self._max_index is None or index > self._max_index:
            self._max_index = index

    def remove(self, cell: int, gain: int) -> None:
        node = self._nodes.get(cell)
        if node is None or self._gains[cell] != gain:
            raise PartitionError(
                f"cell {cell} not in gain bucket {gain}"
            )
        index = self._index(gain)
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._heads[index] = node.next
        if node.next is not None:
            node.next.prev = node.prev
        del self._nodes[cell]
        del self._gains[cell]
        self._count -= 1
        # Let the max pointer drift down lazily.
        while (
            self._max_index is not None
            and self._max_index >= 0
            and self._heads[self._max_index] is None
        ):
            self._max_index -= 1
        if self._max_index is not None and self._max_index < 0:
            self._max_index = None

    def update(self, cell: int, old_gain: int, delta: int) -> int:
        """Relink a cell into its new bucket; returns the new gain."""
        if delta == 0:
            return old_gain
        self.remove(cell, old_gain)
        new_gain = old_gain + delta
        self.insert(cell, new_gain)
        return new_gain

    def iter_best_first(self):
        """Yield ``(gain, cell)`` best-gain-first (LIFO within bucket).

        Each bucket is read into a list before its cells are yielded,
        so mutations during iteration do not disturb a bucket already
        being yielded.
        """
        if self._max_index is None:
            return
        for index in range(self._max_index, -1, -1):
            node = self._heads[index]
            cells = []
            while node is not None:
                cells.append(node.cell)
                node = node.next
            gain = index - self._bound
            for cell in cells:
                yield gain, cell


# ----------------------------------------------------------------------
# The NET reader
# ----------------------------------------------------------------------
def reference_loads_net(text: str, name: str = "") -> Hypergraph:
    """The NET reader as first written, staging every line through a
    :class:`~repro.hypergraph.HypergraphBuilder`.

    :func:`repro.hypergraph.loads_net` must build an equal hypergraph
    (names included) and raise the same :class:`ParseError`, message
    and line number alike.
    """
    builder = HypergraphBuilder()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0].lower()
        if keyword == "module":
            if len(fields) not in (2, 3):
                raise ParseError(
                    "expected 'module <name> [area]'", line=lineno
                )
            area = 1.0
            if len(fields) == 3:
                try:
                    area = float(fields[2])
                except ValueError:
                    area = math.nan  # rejected just below
                # The chained comparison fails for negatives, NaN and inf.
                if not 0 <= area < math.inf:
                    raise ParseError(
                        f"bad module area {fields[2]!r}", line=lineno
                    )
            if builder.has_module(fields[1]):
                raise ParseError(
                    f"module {fields[1]!r} declared twice", line=lineno
                )
            builder.add_module(fields[1], area)
        elif keyword == "net":
            if len(fields) < 2:
                raise ParseError("expected 'net <name> <pins...>'", line=lineno)
            try:
                builder.add_net_by_names(fields[2:], name=fields[1])
            except Exception as exc:
                raise ParseError(str(exc), line=lineno) from exc
        else:
            raise ParseError(
                f"unknown keyword {fields[0]!r} "
                "(expected 'module' or 'net')",
                line=lineno,
            )
    return builder.build(name=name)
