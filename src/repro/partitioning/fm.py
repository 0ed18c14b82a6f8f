"""Fiduccia–Mattheyses iterative improvement with gain buckets.

The classic linear-time-per-pass hypergraph bipartitioner [7], used by the
paper (via Wei–Cheng's RCut1.0 adaptation) as the iterative baseline
family.  This module provides:

* :class:`GainBuckets` — the bucket-list structure keyed by gain;
* :class:`FMEngine` — incremental gain maintenance, single FM passes with
  a balance constraint, and prefix-revert semantics;
* :func:`fm_bipartition` — the standard multi-pass r-balanced FM
  partitioner (minimum net cut subject to a balance tolerance).

The ratio-cut variant built on the same engine lives in
:mod:`repro.partitioning.rcut`.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import PartitionError
from ..hypergraph import Hypergraph
from ..obs import emit, incr, is_enabled, span
from ..parallel import ParallelConfig, pstarmap, spawn_seeds
from .metrics import ratio_cut_cost
from .partition import Partition, PartitionResult

__all__ = ["GainBuckets", "FMEngine", "FMConfig", "fm_bipartition",
           "random_balanced_sides"]


class GainBuckets:
    """Cells bucketed by gain, with O(1) expected operations.

    A simplified bucket list: gain -> set of cells, plus a max-gain
    pointer.  A bucket that empties is deleted, and a later insert at
    its gain starts a fresh set.  Within a bucket, cells come out in set
    iteration order, which depends on the bucket's whole history of
    inserts and removes; the FM pass breaks gain ties by that order.

    ``groups`` (gain -> cells) fills the buckets up front, each set
    built from its list in one call: the same set as adding the cells
    one by one in list order.

    The FM pass (:meth:`FMEngine.run_pass`) walks ``_buckets`` down
    from ``_max_gain`` to ``_floor`` in place, as
    :meth:`iter_best_first` does, with the walk written out in its step
    loop; it changes the buckets only through :meth:`remove` and
    :meth:`update`.
    """

    def __init__(self, groups: Optional[Dict[int, List[int]]] = None) -> None:
        self._buckets: Dict[int, Set[int]] = {
            gain: set(cells) for gain, cells in (groups or {}).items()
        }
        self._max_gain: Optional[int] = max(self._buckets, default=None)
        # A lower bound on every gain ever bucketed: where walks stop.
        self._floor: int = min(self._buckets, default=0)

    def __len__(self) -> int:
        return sum(len(s) for s in self._buckets.values())

    def insert(self, cell: int, gain: int) -> None:
        bucket = self._buckets.get(gain)
        if bucket is None:
            self._buckets[gain] = {cell}
        else:
            bucket.add(cell)
        if self._max_gain is None or gain > self._max_gain:
            self._max_gain = gain
        if gain < self._floor:
            self._floor = gain

    def remove(self, cell: int, gain: int) -> None:
        bucket = self._buckets.get(gain)
        if bucket is None or cell not in bucket:
            raise PartitionError(
                f"cell {cell} not in gain bucket {gain}"
            )
        bucket.remove(cell)
        if not bucket:
            del self._buckets[gain]
            if gain == self._max_gain:
                self._max_gain = max(self._buckets, default=None)

    def update(self, cell: int, old_gain: int, delta: int) -> int:
        """Move a cell between buckets; returns the new gain.

        The same set operations, in the same order, as :meth:`remove` at
        ``old_gain`` then :meth:`insert` at the new gain, in one call.
        """
        if delta == 0:
            return old_gain
        buckets = self._buckets
        try:
            bucket = buckets[old_gain]
            bucket.remove(cell)
        except KeyError:
            raise PartitionError(
                f"cell {cell} not in gain bucket {old_gain}"
            ) from None
        if not bucket:
            del buckets[old_gain]
        new_gain = old_gain + delta
        target = buckets.get(new_gain)
        if target is None:
            buckets[new_gain] = {cell}
        else:
            target.add(cell)
        if new_gain > self._max_gain:
            self._max_gain = new_gain
        elif not bucket and old_gain == self._max_gain:
            self._max_gain = max(buckets)
        if new_gain < self._floor:
            self._floor = new_gain
        return new_gain

    def iter_best_first(self):
        """Yield ``(gain, cell)`` pairs from the highest bucket down.

        Walks the gains down from the max-gain pointer and iterates each
        bucket in place, with no sort and no copy, so the buckets must
        not change while a walk is live.
        """
        if self._max_gain is None:
            return
        buckets = self._buckets
        for gain in range(self._max_gain, self._floor - 1, -1):
            bucket = buckets.get(gain)
            if bucket is not None:
                for cell in bucket:
                    yield gain, cell


class FMEngine:
    """Mutable FM state over a hypergraph bipartition.

    Maintains, incrementally under single-cell moves:

    * per-net pin counts on each side,
    * the current net cut,
    * per-cell gains (cut decrease if the cell moved), via the standard
      before/after critical-net rules of Fiduccia–Mattheyses,
    * side sizes and areas.

    The engine itself enforces no balance rule — callers pass one to
    :meth:`run_pass`.
    """

    def __init__(self, h: Hypergraph, sides: Sequence[int]):
        """Bind ``sides`` of ``h`` and count the gain state
        (:meth:`_count_gain_state`)."""
        if len(sides) != h.num_modules:
            raise PartitionError(
                f"{len(sides)} sides for {h.num_modules} modules"
            )
        self.h = h
        self.sides: List[int] = [int(s) for s in sides]
        if any(s not in (0, 1) for s in self.sides):
            raise PartitionError("sides must be 0/1")
        self.side_count = [
            self.sides.count(0),
            h.num_modules - self.sides.count(0),
        ]
        self._pins = h.net_pins
        self._nets_of = h.module_nets
        self._areas = h.module_areas
        self._num_areas = len(set(self._areas))
        self.side_area = [0.0, 0.0]
        for v, s in enumerate(self.sides):
            self.side_area[s] += self._areas[v]
        # Stats of the most recent run_pass (moved/kept/best_value).
        self.last_pass = {"moved": 0, "kept": 0, "best_value": 0.0}
        self._count_gain_state()

    def _count_gain_state(self) -> None:
        """Count pins per net and side, the cut and every cell's gain
        from the sides alone, in O(pins).

        Pure integer arithmetic over the flat CSR pin arrays: bincount
        the pins by side for per-net counts, then sum each pin's FS/TE
        critical-net contribution per module (the rules of
        :meth:`_compute_gain`).
        """
        h = self.h
        m = h.num_nets
        csr = h.csr
        sizes = np.diff(csr.net_indptr)
        pin_modules = csr.net_indices
        pin_nets = np.repeat(np.arange(m, dtype=np.int64), sizes)
        pin_sides = np.asarray(self.sides, dtype=np.int64)[pin_modules]
        in1 = np.bincount(pin_nets[pin_sides == 1], minlength=m)
        in0 = sizes - in1
        self.pin_count = np.stack((in0, in1), axis=1).tolist()
        self.cut = int(np.count_nonzero((in0 > 0) & (in1 > 0)))
        count_same = np.where(pin_sides == 0, in0[pin_nets], in1[pin_nets])
        count_other = np.where(
            pin_sides == 0, in1[pin_nets], in0[pin_nets]
        )
        contribution = np.where(
            (sizes >= 2)[pin_nets],
            (count_same == 1).astype(np.int64)
            - (count_other == 0).astype(np.int64),
            0,
        )
        gains = np.bincount(
            pin_modules, weights=contribution, minlength=h.num_modules
        )
        self.gains = gains.astype(np.int64).tolist()

    # ------------------------------------------------------------------
    def _compute_gain(self, cell: int) -> int:
        """Gain of moving ``cell``: FS(cell) - TE(cell)."""
        side = self.sides[cell]
        other = 1 - side
        gain = 0
        for net in self._nets_of[cell]:
            counts = self.pin_count[net]
            if counts[side] + counts[other] < 2:
                continue
            if counts[side] == 1:
                gain += 1  # cell is the sole pin on its side: uncuts
            if counts[other] == 0:
                gain -= 1  # net entirely on cell's side: move cuts it
        return gain

    def move(
        self,
        cell: int,
        buckets: Optional[Sequence[GainBuckets]] = None,
        locked: Optional[Sequence[bool]] = None,
    ) -> None:
        """Move ``cell`` to the other side, updating cut and gains.

        Each net of ``cell`` changes its pins' gains by the critical-net
        rules of Fiduccia–Mattheyses, checked before the move against
        the to side and after it against the from side.  Given
        ``buckets`` (one :class:`GainBuckets` per side, with ``cell``
        already taken out) and ``locked``, each gain change of a free
        neighbour is one :meth:`GainBuckets.update`, in that order.  The
        moved cell's new gain is minus its old one: moving it back
        restores the cut.
        """
        sides = self.sides
        gains = self.gains
        pin_count = self.pin_count
        pins_of = self._pins
        from_side = sides[cell]
        to_side = 1 - from_side
        cut = self.cut
        for net in self._nets_of[cell]:
            counts = pin_count[net]
            on_to = counts[to_side]  # before the move
            on_from = counts[from_side] - 1  # after it
            counts[to_side] = on_to + 1
            counts[from_side] = on_from
            if on_to + on_from == 0:
                continue  # a one-pin net is never cut
            if on_to == 0:
                # The net becomes cut: every other pin gains 1.
                cut += 1
                for pin in pins_of[net]:
                    if pin != cell:
                        gain = gains[pin]
                        gains[pin] = gain + 1
                        if buckets is not None and not locked[pin]:
                            buckets[from_side].update(pin, gain, 1)
            elif on_to == 1:
                # Its one to-side pin can no longer uncut it alone.
                for pin in pins_of[net]:
                    if pin != cell and sides[pin] == to_side:
                        gain = gains[pin]
                        gains[pin] = gain - 1
                        if buckets is not None and not locked[pin]:
                            buckets[to_side].update(pin, gain, -1)
                        break
            if on_from == 0:
                # The net is no longer cut: every other pin loses 1.
                cut -= 1
                for pin in pins_of[net]:
                    if pin != cell:
                        gain = gains[pin]
                        gains[pin] = gain - 1
                        if buckets is not None and not locked[pin]:
                            buckets[to_side].update(pin, gain, -1)
            elif on_from == 1:
                # Its last from-side pin could now uncut it alone.
                for pin in pins_of[net]:
                    if pin != cell and sides[pin] == from_side:
                        gain = gains[pin]
                        gains[pin] = gain + 1
                        if buckets is not None and not locked[pin]:
                            buckets[from_side].update(pin, gain, 1)
                        break
        self.cut = cut
        sides[cell] = to_side
        self.side_count[from_side] -= 1
        self.side_count[to_side] += 1
        area = self._areas[cell]
        self.side_area[from_side] -= area
        self.side_area[to_side] += area
        gains[cell] = -gains[cell]

    # ------------------------------------------------------------------
    def lookahead_gain(
        self, cell: int, locked: Optional[Sequence[bool]] = None
    ) -> int:
        """Krishnamurthy-style second-level gain of ``cell``.

        Counts nets that would become *critical in our favour* once the
        cell moved: a net with exactly two pins on the cell's side whose
        other side-mate is still free will be uncuttable by one further
        move (+1), while a net whose single to-side pin is free loses
        that potential (-1).  Used to break first-level gain ties
        ([21]); exact multi-level gain vectors are overkill for a
        tie-breaker and this on-demand form needs no extra bookkeeping.
        """
        side = self.sides[cell]
        other = 1 - side
        gain2 = 0
        for net in self._nets_of[cell]:
            counts = self.pin_count[net]
            if counts[side] + counts[other] < 2:
                continue
            if counts[side] == 2:
                mate_free = any(
                    p != cell
                    and self.sides[p] == side
                    and (locked is None or not locked[p])
                    for p in self._pins[net]
                )
                if mate_free:
                    gain2 += 1
            if counts[other] == 1:
                target = next(
                    (
                        p
                        for p in self._pins[net]
                        if self.sides[p] == other
                    ),
                    None,
                )
                if target is not None and (
                    locked is None or not locked[target]
                ):
                    gain2 -= 1
        return gain2

    def run_pass(
        self, feasible, objective="cut", lookahead: int = 1
    ) -> Tuple[int, float]:
        """One FM pass with prefix revert.

        ``feasible(side, area)`` is the balance rule: may a module of
        ``area`` leave ``side`` now?  It may read the engine's side
        counts and side areas, but not which module moves.  The pass
        therefore asks it at most once per distinct area per side per
        step, and gives up on a side for the step once the rule has
        rejected every distinct module area of the netlist.  On a
        unit-area netlist that is one call per side per step.

        Every cell moves at most once.  A step is two walks and one
        :meth:`move`.  Each walk goes down one side's gain buckets from
        their max-gain pointer, iterating each bucket's set in place
        (the walk of :meth:`GainBuckets.iter_best_first`, written out in
        the loop), to that side's best-gain cell the rule lets move.  Of
        the two, the move minimising the post-move ``objective`` is
        applied, ties going to the higher gain, then the lower cell
        index (for ``"cut"`` this is classic FM best-gain selection;
        for ``"ratio"`` it is Wei–Cheng's myopic ratio-gain selection,
        where the denominator term makes moves from the large side more
        attractive).  With ``lookahead >= 2``, first-level gain ties
        (up to eight cells per side) are broken by the Krishnamurthy
        second-level gain (:meth:`lookahead_gain`).  A step costs the
        two walks plus the moved cell's pins.

        The pass tracks the prefix with the best objective value and
        reverts the rest without replaying it: the reverted cells'
        sides, side counts and side areas go back in reverse move order
        (so the area sums are the ones reverse moves would give), then
        pin counts, cut and gains, which depend on the sides alone, are
        recounted in one O(pins) pass.  A pass that keeps every move
        skips the recount.

        Returns ``(moves_kept, best_objective_value)``.
        """
        if objective not in ("cut", "ratio"):
            raise PartitionError(f"unknown objective {objective!r}")
        by_cut = objective == "cut"
        sides = self.sides
        side_count = self.side_count
        locked = [False] * len(sides)
        groups = (defaultdict(list), defaultdict(list))
        for v, gain in enumerate(self.gains):
            groups[sides[v]][gain].append(v)
        buckets = (GainBuckets(groups[0]), GainBuckets(groups[1]))
        areas = self._areas
        num_areas = self._num_areas

        move_sequence: List[int] = []
        best_prefix = 0
        best_value = math.inf
        while True:
            # The value of the partition as it stands, after the last move.
            cut = self.cut
            count0, count1 = side_count
            if by_cut:
                value = float(cut)
            else:
                value = ratio_cut_cost(cut, count0, count1)
            if value < best_value or not move_sequence:
                best_value = value
                best_prefix = len(move_sequence)

            # The step's move: its cell, gain and post-move value.
            chosen = -1
            chosen_gain = 0
            chosen_value = 0.0
            for side in (0, 1):
                side_buckets = buckets[side]
                gain = side_buckets._max_gain
                if gain is None:
                    continue
                table = side_buckets._buckets
                floor = side_buckets._floor
                verdicts = {}
                rejected = 0
                found = -1
                while gain >= floor:
                    bucket = table.get(gain)
                    if bucket is not None:
                        for cell in bucket:
                            area = areas[cell]
                            verdict = verdicts.get(area)
                            if verdict is None:
                                # A bool, as bool() gives, without its
                                # call on the pass's hottest path.
                                verdict = verdicts[area] = (
                                    True if feasible(side, area) else False
                                )
                                # Once every distinct area is rejected,
                                # no cell of this side may move.
                                if not verdict:
                                    rejected += 1
                                    if rejected == num_areas:
                                        break
                            if verdict:
                                found = cell
                                break
                        if found >= 0 or rejected == num_areas:
                            break
                    gain -= 1
                if found < 0:
                    continue
                cell = found
                if lookahead >= 2:
                    # The bucket's first eight cells the rule lets move,
                    # ``found`` first, since the cells before it are
                    # rejected; the verdicts asked here are the ones a
                    # walk on past ``found`` would ask.
                    tied = []
                    for other in bucket:
                        area = areas[other]
                        verdict = verdicts.get(area)
                        if verdict is None:
                            verdict = verdicts[area] = (
                                True if feasible(side, area) else False
                            )
                        if verdict:
                            tied.append(other)
                            if len(tied) == 8:
                                break
                    if len(tied) > 1:
                        cell = max(
                            tied,
                            key=lambda c: self.lookahead_gain(c, locked),
                        )
                if by_cut:
                    value = float(cut - gain)
                elif side == 0:
                    value = ratio_cut_cost(cut - gain, count0 - 1, count1 + 1)
                else:
                    value = ratio_cut_cost(cut - gain, count0 + 1, count1 - 1)
                # The key (value, -gain, cell), lowest first.
                if chosen < 0 or value < chosen_value or (
                    value == chosen_value
                    and (gain > chosen_gain
                         or (gain == chosen_gain and cell < chosen))
                ):
                    chosen = cell
                    chosen_gain = gain
                    chosen_value = value
            if chosen < 0:
                break
            buckets[sides[chosen]].remove(chosen, chosen_gain)
            locked[chosen] = True
            self.move(chosen, buckets, locked)
            move_sequence.append(chosen)

        reverted = move_sequence[best_prefix:]
        if reverted:
            side_area = self.side_area
            for cell in reversed(reverted):
                from_side = sides[cell]
                to_side = 1 - from_side
                sides[cell] = to_side
                side_count[from_side] -= 1
                side_count[to_side] += 1
                area = areas[cell]
                side_area[from_side] -= area
                side_area[to_side] += area
            self._count_gain_state()
        # Telemetry for callers/obs: what the pass actually did.
        self.last_pass = {
            "moved": len(move_sequence),
            "kept": best_prefix,
            "best_value": best_value,
        }
        return best_prefix, best_value

    def partition(self) -> Partition:
        return Partition(self.h, self.sides)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FMConfig:
    """Options for :func:`fm_bipartition`.

    ``balance_tolerance`` is the allowed deviation of either side's area
    from half the total, as a fraction of the total area (0.0 requests a
    bisection up to one cell).  ``max_passes`` bounds the pass loop;
    passes stop early when one yields no improvement.  ``lookahead=2``
    enables Krishnamurthy second-level gain tie-breaking [21].

    ``starts > 1`` runs the whole multi-pass optimisation from that
    many independent random initial partitions (seeds spawned up front
    from ``seed``) and keeps the lowest cut — classic multi-start
    refinement.  The starts fan out through :mod:`repro.parallel`
    according to ``parallel`` (``None`` resolves from the
    ``REPRO_WORKERS`` environment); results are identical for every
    worker count.  ``starts=1`` preserves the historical
    single-start behaviour (initial partition drawn directly from
    ``random.Random(seed)``).
    """

    balance_tolerance: float = 0.10
    max_passes: int = 20
    seed: int = 0
    lookahead: int = 1
    starts: int = 1
    parallel: Optional[ParallelConfig] = None


def random_balanced_sides(
    h: Hypergraph, rng: random.Random
) -> List[int]:
    """A random half/half side assignment (by module count)."""
    order = list(range(h.num_modules))
    rng.shuffle(order)
    sides = [0] * h.num_modules
    for v in order[len(order) // 2 :]:
        sides[v] = 1
    return sides


def _enter_window(engine: FMEngine, high: float) -> None:
    """Move modules off the heavier side until its area is at most
    ``high``, the top of the balance window.

    A start can lie outside the window (a random half/half split of
    mixed areas, or an explicit or warm start), and the pass's rule
    then rejects every move that would repair it.  Each step moves the
    heavier side's best-gain module (lowest index among ties) whose
    area is positive and below the gap between the side areas, so the
    gap shrinks every step; a side is never emptied.  Starts inside the
    window are untouched.
    """
    areas = engine.h.module_areas
    side_area = engine.side_area
    while True:
        heavy = 0 if side_area[0] > side_area[1] else 1
        if side_area[heavy] <= high or engine.side_count[heavy] <= 1:
            return
        gap = side_area[heavy] - side_area[1 - heavy]
        movable = [
            v
            for v, side in enumerate(engine.sides)
            if side == heavy and 0 < areas[v] < gap
        ]
        if not movable:
            return
        engine.move(max(movable, key=engine.gains.__getitem__))


def _optimise_start(
    h: Hypergraph, sides: List[int], config: FMConfig
) -> Tuple[List[int], int, int]:
    """The multi-pass FM loop from one initial partition.

    Returns ``(final_sides, cut, passes)``.  Module-level and driven by
    plain data so multi-start refinement can run it in process workers.
    A start outside the balance window is first moved into it
    (:func:`_enter_window`).
    """
    engine = FMEngine(h, sides)
    total_area = h.total_area
    max_cell_area = max(h.module_areas, default=0.0)
    slack = config.balance_tolerance * total_area + max_cell_area
    low = total_area / 2 - slack
    high = total_area / 2 + slack

    def feasible(side: int, area: float) -> bool:
        # Never empty a side: zero-area modules (pads) make the area
        # window insufficient on its own.
        if engine.side_count[side] <= 1:
            return False
        new_to = engine.side_area[1 - side] + area
        new_from = engine.side_area[side] - area
        return low <= new_to <= high and low <= new_from <= high

    _enter_window(engine, high)
    passes = 0
    profiling = is_enabled()
    cut_initial = engine.cut
    pass_cuts: List[int] = []
    pass_kept: List[int] = []
    with span(
        "fm", modules=h.num_modules, nets=h.num_nets, cut_initial=engine.cut
    ) as fm_span:
        for _ in range(config.max_passes):
            before = engine.cut
            moves, _ = engine.run_pass(
                feasible, objective="cut", lookahead=config.lookahead
            )
            passes += 1
            if profiling:
                incr("fm.passes")
                incr("fm.moves_attempted", engine.last_pass["moved"])
                incr("fm.moves_kept", moves)
                emit(
                    "fm.pass",
                    index=passes,
                    moved=engine.last_pass["moved"],
                    kept=moves,
                    cut_before=before,
                    cut_after=engine.cut,
                )
                pass_cuts.append(engine.cut)
                pass_kept.append(moves)
            if engine.cut >= before or moves == 0:
                break
        fm_span.set(passes=passes, cut_final=engine.cut)
        if profiling and pass_cuts:
            # The per-pass gain curve: cut after each pass, starting
            # from the initial cut at pass 0.
            emit(
                "fm.curve",
                cut_initial=cut_initial,
                passes=list(range(len(pass_cuts) + 1)),
                cuts=[cut_initial] + pass_cuts,
                kept=pass_kept,
            )
    return list(engine.sides), engine.cut, passes


def _fm_start_task(
    h: Hypergraph, config: FMConfig, start_seed: int
) -> Tuple[List[int], int, int]:
    """One multi-start run from a spawned per-start seed (picklable)."""
    rng = random.Random(start_seed)
    sides = random_balanced_sides(h, rng)
    return _optimise_start(h, sides, config)


def fm_bipartition(
    h: Hypergraph,
    config: FMConfig = FMConfig(),
    initial_sides: Optional[Sequence[int]] = None,
) -> PartitionResult:
    """Min-net-cut r-balanced bipartition by multi-pass FM.

    With ``config.starts > 1`` (and no ``initial_sides``) the
    optimisation is repeated from independent random starts and the
    lowest final cut wins; ties go to the lowest start index, so the
    result is deterministic and independent of the worker count.
    """
    if h.num_modules < 2:
        raise PartitionError("FM needs at least 2 modules")
    start = time.perf_counter()

    multi_start = initial_sides is None and config.starts > 1
    if multi_start:
        with span("fm.multistart", starts=config.starts) as ms_span:
            start_seeds = spawn_seeds(config.seed, config.starts)
            outcomes = pstarmap(
                _fm_start_task,
                [(h, config, s) for s in start_seeds],
                config.parallel,
                label="fm.starts",
            )
            best_sides, best_cut, best_passes = outcomes[0]
            for sides, cut, passes in outcomes[1:]:
                if cut < best_cut:
                    best_sides, best_cut, best_passes = sides, cut, passes
            ms_span.set(cut_final=best_cut)
    else:
        if initial_sides is None:
            rng = random.Random(config.seed)
            sides = random_balanced_sides(h, rng)
        else:
            sides = list(initial_sides)
        best_sides, best_cut, best_passes = _optimise_start(
            h, sides, config
        )

    elapsed = time.perf_counter() - start
    return PartitionResult(
        algorithm="FM",
        partition=Partition(h, best_sides),
        elapsed_seconds=elapsed,
        details={
            "passes": best_passes,
            "balance_tolerance": config.balance_tolerance,
            "seed": config.seed,
            "lookahead": config.lookahead,
            "starts": config.starts if multi_start else 1,
        },
    )
