"""IG-Match: spectral net partitioning with matching-based completion.

The paper's main algorithm (Section 3, Figures 5–7):

1. Build the intersection graph ``G'`` of the netlist hypergraph and sort
   its second Laplacian eigenvector, giving a linear ordering of the nets.
2. Sweep a split point along the ordering.  At each split, the
   intersection-graph edges crossing the split form a bipartite graph
   ``B``; a maximum matching of ``B`` (maintained incrementally) and the
   König decomposition select a maximum independent set of *winner* nets
   (Phase I), which pin modules to sides.  The leftover modules are tried
   wholesale on each side and the better ratio cut kept (Phase II).
3. Return the best completed module partition over all splits.

Guarantees the tests check:

* the completed partition never cuts more nets than the size of the
  maximum matching of ``B`` (Theorem 5); each :class:`SplitEvaluation`
  carries both numbers, so the check runs at every evaluated split;
* the output is deterministic for a fixed eigensolver seed, one of the
  paper's headline practical advantages.

The recursive extension sketched in Section 3 (re-partitioning the
unassigned core instead of assigning it wholesale) is available via
``recursive_depth``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..intersection import intersection_graph
from ..matching import IncrementalMatching
from ..matching.incremental import VertexClass
from ..obs import add_timing, emit, incr, is_enabled, span
from ..spectral import spectral_ordering
from .metrics import ratio_cut_cost
from .partition import Partition, PartitionResult

__all__ = [
    "IGMatchConfig",
    "SplitEvaluation",
    "SweepWarmStart",
    "ig_match",
    "ig_match_sweep",
]

_L_SIDE = 0
_R_SIDE = 1
_UNASSIGNED = 2


@dataclass(frozen=True)
class IGMatchConfig:
    """Tuning knobs for :func:`ig_match`.

    ``weighting`` selects the intersection-graph edge weighting
    (``"paper"`` by default).  ``seed`` fixes the eigensolver's start
    vector.  ``split_stride`` evaluates every k-th split (1 = all
    splits, the paper's algorithm; larger values trade quality for
    speed on very large netlists).  ``recursive_depth`` > 0 enables
    the recursive completion extension.
    """

    weighting: str = "paper"
    seed: int = 0
    split_stride: int = 1
    recursive_depth: int = 0


@dataclass(frozen=True)
class SplitEvaluation:
    """Outcome of completing the module partition at one split rank.

    ``nets_cut`` counts nets, as the paper's ratio cut does; Theorem 5
    bounds it by ``matching_size``.
    """

    rank: int
    matching_size: int
    nets_cut: int
    ratio_cut: float
    assign_core_to_l: bool


@dataclass(frozen=True)
class SweepWarmStart:
    """Warm-start directive for :func:`ig_match_sweep`.

    Restricts the sweep to split ranks ``lo..hi`` (inclusive, both in
    ``1..num_nets-1``).  The matcher reaches the rank ``lo`` state via
    :meth:`~repro.matching.IncrementalMatching.jump_start` — flipping
    the first ``lo - 1`` ordered nets in one shot and growing a maximum
    matching with a single augmentation pass — instead of replaying
    ``lo - 1`` incremental moves.  König classes are the same for every
    maximum matching (the Dulmage–Mendelsohn decomposition is unique),
    so every evaluation inside the window is identical to the cold
    sweep's evaluation at the same rank.
    """

    lo: int
    hi: int


#: The side a net's König class pins its modules to, indexed by
#: :class:`VertexClass` code: winners pin, every other class leaves its
#: modules to the core.
_PINS_TO = tuple(
    _L_SIDE if code == VertexClass.EVEN_L
    else _R_SIDE if code == VertexClass.EVEN_R
    else _UNASSIGNED
    for code in range(6)
)


class _CompletionTally:
    """Phase II of the main loop, maintained across the sweep's splits.

    Winner nets (Even(L), Even(R)) pin their modules to their side; the
    unassigned core is tried wholesale on each side and the better ratio
    cut wins.  Rather than recount every pin per split, the tally keeps
    per module the number of winner nets pinning it to each side and the
    resulting assignment (``assign``: ``_L_SIDE``/``_R_SIDE``/
    ``_UNASSIGNED``), per net its pin count on each of those three
    sides, and whether the net is cut when the core joins L or R.
    The first state is counted in bulk over the incidence arrays;
    :meth:`update` then replays only the nets whose class changed.
    """

    def __init__(self, h: Hypergraph, codes: List[int]):
        m = h.num_nets
        n = h.num_modules
        self._pins = h.net_pins
        self._nets_of = h.module_nets
        net_indptr, net_indices, _, _ = h.csr
        net_of_pin = np.repeat(np.arange(m), np.diff(net_indptr))
        net_pins_to = np.asarray(_PINS_TO)[np.asarray(codes, dtype=int)]
        pin_to = net_pins_to[net_of_pin]
        pinned_l = np.bincount(net_indices[pin_to == _L_SIDE], minlength=n)
        pinned_r = np.bincount(net_indices[pin_to == _R_SIDE], minlength=n)
        # Winners are independent across the split, so no module is
        # pinned to both sides; update() gives R the same precedence.
        assign = np.where(
            pinned_r > 0,
            _R_SIDE,
            np.where(pinned_l > 0, _L_SIDE, _UNASSIGNED),
        )
        pin_count = np.bincount(
            3 * net_of_pin + assign[net_indices], minlength=3 * m
        )
        in_l, in_r, in_n = pin_count.reshape(m, 3).T
        cut_core_l = (in_r > 0) & ((in_l > 0) | (in_n > 0))
        cut_core_r = (in_l > 0) & ((in_r > 0) | (in_n > 0))

        self._net_pins_to = net_pins_to.tolist()
        self._pinned_l = pinned_l.tolist()
        self._pinned_r = pinned_r.tolist()
        self.assign = assign.tolist()
        self._side_count = np.bincount(assign, minlength=3).tolist()
        self._pin_count = pin_count.tolist()
        self._cut_core_l = cut_core_l.tolist()
        self._cut_core_r = cut_core_r.tolist()
        self._cuts = [int(cut_core_l.sum()), int(cut_core_r.sum())]

    def update(self, nets: Iterable[int], codes: List[int]) -> None:
        """Account for the current ``codes`` of ``nets`` (every net
        whose class may have changed since the last update)."""
        pinned_l = self._pinned_l
        pinned_r = self._pinned_r
        touched: List[int] = []
        for net in nets:
            new = _PINS_TO[codes[net]]
            old = self._net_pins_to[net]
            if new == old:
                continue
            self._net_pins_to[net] = new
            pins = self._pins[net]
            for pins_side, step in ((old, -1), (new, 1)):
                if pins_side == _L_SIDE:
                    for p in pins:
                        pinned_l[p] += step
                elif pins_side == _R_SIDE:
                    for p in pins:
                        pinned_r[p] += step
            touched.extend(pins)

        assign = self.assign
        pin_count = self._pin_count
        side_count = self._side_count
        recount: List[int] = []
        for p in touched:
            # Winners are independent across the split, so no module is
            # pinned to both sides.
            new = (
                _R_SIDE if pinned_r[p]
                else _L_SIDE if pinned_l[p]
                else _UNASSIGNED
            )
            old = assign[p]
            if new == old:
                continue
            assign[p] = new
            side_count[old] -= 1
            side_count[new] += 1
            for net in self._nets_of[p]:
                pin_count[3 * net + old] -= 1
                pin_count[3 * net + new] += 1
            recount.extend(self._nets_of[p])

        cut_core_l = self._cut_core_l
        cut_core_r = self._cut_core_r
        for net in recount:
            base = 3 * net
            in_l = pin_count[base + _L_SIDE]
            in_r = pin_count[base + _R_SIDE]
            in_n = pin_count[base + _UNASSIGNED]
            # Core -> L: uncut iff all pins land in L (in_r == 0) or all
            # in R; symmetrically for core -> R.
            cut_l = in_r > 0 and (in_l > 0 or in_n > 0)
            cut_r = in_l > 0 and (in_r > 0 or in_n > 0)
            if cut_l != cut_core_l[net]:
                cut_core_l[net] = cut_l
                self._cuts[0] += 1 if cut_l else -1
            if cut_r != cut_core_r[net]:
                cut_core_r[net] = cut_r
                self._cuts[1] += 1 if cut_r else -1

    def evaluate(
        self, rank: int, matching_size: int
    ) -> Optional[SplitEvaluation]:
        """The better completion at this split, or ``None`` when both
        completions leave a side empty."""
        num_l = self._side_count[_L_SIDE]
        num_r = self._side_count[_R_SIDE]
        num_n = self._side_count[_UNASSIGNED]
        cut_if_core_l, cut_if_core_r = self._cuts
        ratio_core_l = ratio_cut_cost(cut_if_core_l, num_l + num_n, num_r)
        ratio_core_r = ratio_cut_cost(cut_if_core_r, num_l, num_r + num_n)
        if ratio_core_l == float("inf") and ratio_core_r == float("inf"):
            return None
        core_to_l = ratio_core_l <= ratio_core_r
        return SplitEvaluation(
            rank=rank,
            matching_size=matching_size,
            nets_cut=cut_if_core_l if core_to_l else cut_if_core_r,
            ratio_cut=ratio_core_l if core_to_l else ratio_core_r,
            assign_core_to_l=core_to_l,
        )


def _materialise(
    h: Hypergraph, assign: Sequence[int], core_to_l: bool
) -> List[int]:
    """Resolve unassigned modules to the chosen side; return 0/1 sides.

    Side 0 (U) is the L side of the net split, side 1 (W) the R side.
    """
    resolved = _L_SIDE if core_to_l else _R_SIDE
    return [
        (resolved if a == _UNASSIGNED else a) for a in assign
    ]


def ig_match_sweep(
    h: Hypergraph,
    config: IGMatchConfig = IGMatchConfig(),
    order: Optional[Sequence[int]] = None,
    graph=None,
    warm: Optional[SweepWarmStart] = None,
) -> Tuple[List[SplitEvaluation], Optional[Partition]]:
    """Run the full IG-Match sweep; return all evaluations and the best
    completed partition.

    ``order`` overrides the spectral net ordering (used by ablations that
    feed the same ordering to several completion strategies); ``graph``
    supplies a prebuilt intersection graph to avoid rebuilding it across
    multiple sweeps.  ``warm`` restricts the sweep to a rank window,
    jump-starting the matcher (see :class:`SweepWarmStart`).
    """
    if h.num_modules < 2:
        raise PartitionError("IG-Match needs at least 2 modules")
    if h.num_nets < 2:
        raise PartitionError("IG-Match needs at least 2 nets to split")
    if config.split_stride < 1:
        raise PartitionError(
            f"split_stride must be >= 1, got {config.split_stride}"
        )

    if graph is None:
        graph = intersection_graph(h, config.weighting)
    if order is None:
        order = spectral_ordering(graph, seed=config.seed)
    elif sorted(order) != list(range(h.num_nets)):
        raise PartitionError("order must be a permutation of net indices")

    matcher = IncrementalMatching(graph)
    evaluations: List[SplitEvaluation] = []
    best_eval: Optional[SplitEvaluation] = None
    best_assign: Optional[List[int]] = None

    num_nets = h.num_nets
    start_index = 0
    stop_index = num_nets - 1
    if warm is not None:
        if not 1 <= warm.lo <= warm.hi <= num_nets - 1:
            raise PartitionError(
                f"warm window [{warm.lo}, {warm.hi}] outside valid "
                f"split ranks 1..{num_nets - 1}"
            )
        # Reach the rank ``lo - 1`` state in one shot; the loop below
        # then performs the rank ``lo`` move exactly like a cold sweep.
        matcher.jump_start([order[i] for i in range(warm.lo - 1)])
        start_index = warm.lo - 1
        stop_index = warm.hi
    # The per-split loop is the pipeline's hot path, so it is profiled
    # with local perf_counter accumulators (reported once after the
    # loop) rather than a span per split; ``profiling`` is a local
    # bool, so the disabled cost is one branch per split.
    profiling = is_enabled()
    match_seconds = 0.0
    complete_seconds = 0.0
    t_mark = 0.0
    with span("igmatch.sweep", nets=num_nets) as sweep_span:
        tally: Optional[_CompletionTally] = None
        for index in range(start_index, stop_index):
            net = order[index]
            if profiling:
                t_mark = time.perf_counter()
            # Nets swept so far (including this one) form the R side.
            matcher.move_to_right(net)
            rank = index + 1
            if rank % config.split_stride and rank != num_nets - 1:
                if profiling:
                    match_seconds += time.perf_counter() - t_mark
                continue
            codes = matcher.classify()
            if profiling:
                now = time.perf_counter()
                match_seconds += now - t_mark
                t_mark = now
            if tally is None:
                tally = _CompletionTally(h, codes)
            else:
                tally.update(matcher.reclassified, codes)
            evaluation = tally.evaluate(rank, matcher.matching_size)
            if profiling:
                complete_seconds += time.perf_counter() - t_mark
            if evaluation is None:
                continue
            evaluations.append(evaluation)
            if best_eval is None or (
                (evaluation.ratio_cut, evaluation.rank)
                < (best_eval.ratio_cut, best_eval.rank)
            ):
                best_eval = evaluation
                best_assign = list(tally.assign)

        if profiling:
            splits = len(evaluations)
            sweep_span.set(
                splits=splits,
                augmentations=matcher.augmentations,
                matching_size=matcher.matching_size,
            )
            add_timing(
                "igmatch.matching",
                match_seconds,
                count=splits,
                augmentations=matcher.augmentations,
            )
            add_timing("igmatch.completion", complete_seconds, count=splits)
            incr("igmatch.sweeps")
            incr("igmatch.splits_evaluated", splits)
            incr("matching.augmentations", matcher.augmentations)
            incr(
                "matching.augmentation_attempts",
                matcher.augmentation_attempts,
            )
            incr("matching.search_visits", matcher.search_visits)
            incr("matching.classify_visits", matcher.classify_visits)
            emit(
                "igmatch.sweep",
                nets=num_nets,
                splits=splits,
                augmentations=matcher.augmentations,
                final_matching_size=matcher.matching_size,
                best_rank=None if best_eval is None else best_eval.rank,
            )
            if evaluations:
                # The ratio-cut-vs-split-index curve behind Theorem 6's
                # sweep, plus the matching-size (Theorem 5 bound) at
                # each evaluated split — the IG-Match analogue of the
                # EIG1 splits.curve event.
                emit(
                    "igmatch.curve",
                    nets=num_nets,
                    ranks=[e.rank for e in evaluations],
                    ratio_cuts=[e.ratio_cut for e in evaluations],
                    nets_cut=[e.nets_cut for e in evaluations],
                    matching_sizes=[
                        e.matching_size for e in evaluations
                    ],
                    best_rank=(
                        None if best_eval is None else best_eval.rank
                    ),
                )

    if best_eval is None or best_assign is None:
        return evaluations, None
    with span("igmatch.refinement", recursive_depth=config.recursive_depth):
        sides = _materialise(h, best_assign, best_eval.assign_core_to_l)
        partition = Partition(h, sides)
        if config.recursive_depth > 0:
            partition = _recursive_refine(
                h, best_assign, partition, config
            )
    return evaluations, partition


def _recursive_refine(
    h: Hypergraph,
    assign: Sequence[int],
    baseline: Partition,
    config: IGMatchConfig,
) -> Partition:
    """The recursive extension: instead of sending every unassigned
    module to one side, bipartition the unassigned set with a recursive
    IG-Match call and try both orientations of that sub-partition.

    Keeps the better of the baseline and the recursive completion, so it
    never degrades the result.
    """
    unassigned = [v for v, a in enumerate(assign) if a == _UNASSIGNED]
    if len(unassigned) < 4:
        return baseline

    from ..hypergraph import induced_subhypergraph

    sub, module_map, _ = induced_subhypergraph(h, unassigned)
    if sub.num_nets < 2 or sub.num_modules < 2:
        return baseline
    sub_config = replace(config, recursive_depth=config.recursive_depth - 1)
    try:
        _, sub_partition = ig_match_sweep(sub, sub_config)
    except PartitionError:
        return baseline
    if sub_partition is None:
        return baseline

    best = baseline
    for orientation in (0, 1):
        sides = list(assign)
        for sub_index, module in enumerate(module_map):
            sub_side = sub_partition.side(sub_index)
            if orientation:
                sub_side = 1 - sub_side
            sides[module] = sub_side
        try:
            candidate = Partition(h, sides)
        except PartitionError:
            continue
        if candidate.ratio_cut < best.ratio_cut:
            best = candidate
    return best


def ig_match(
    h: Hypergraph,
    config: IGMatchConfig = IGMatchConfig(),
    order: Optional[Sequence[int]] = None,
) -> PartitionResult:
    """Partition ``h`` with IG-Match; the paper's primary algorithm.

    Returns a :class:`PartitionResult` whose ``details`` include the best
    split rank, the matching-size bound at that split (Theorem 5), and
    the number of splits evaluated.
    """
    start = time.perf_counter()
    if h.num_modules < 2:
        raise PartitionError("IG-Match needs at least 2 modules")
    if h.num_nets < 2:
        raise PartitionError("IG-Match needs at least 2 nets to split")

    with span(
        "igmatch", modules=h.num_modules, nets=h.num_nets
    ) as ig_span:
        graph = intersection_graph(h, config.weighting)
        if order is None:
            with span("igmatch.ordering"):
                order = spectral_ordering(graph, seed=config.seed)
        evaluations, partition = ig_match_sweep(
            h, config, order=order, graph=graph
        )
        if partition is None:
            raise PartitionError(
                "IG-Match found no feasible completion at any split"
            )
        best = min(evaluations, key=lambda e: (e.ratio_cut, e.rank))
        ig_span.set(
            best_rank=best.rank, splits_evaluated=len(evaluations)
        )
    elapsed = time.perf_counter() - start
    return PartitionResult(
        algorithm="IG-Match",
        partition=partition,
        elapsed_seconds=elapsed,
        details={
            "best_rank": best.rank,
            "matching_bound": best.matching_size,
            "splits_evaluated": len(evaluations),
            "weighting": config.weighting,
            "backend": "scipy",  # eigsh; part of canonical_result_bytes
            "recursive_depth": config.recursive_depth,
            "orderings_tried": 1,
            "best_ordering": 0,
        },
    )
