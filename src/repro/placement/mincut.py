"""Min-cut placement by recursive bisection with terminal propagation.

The paper's opening argument is that layout proceeds by hierarchical
decomposition and that partitioning quality constrains everything
downstream.
This module closes that loop with the classic consumer of a
bipartitioner: Dunlop–Kernighan-style **min-cut placement** — recursively
slice the chip region, partition the modules of each region across the
slice, and let nets anchored outside a region bias where its modules go
(**terminal propagation**).

The result is a coarse legalised placement on a ``2^levels`` grid,
scored by half-perimeter wirelength (HPWL).  Together with Hall's
analytical placement (:mod:`repro.spectral.hall`) it gives the library
both classical placement families.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PartitionError
from ..hypergraph import Hypergraph, induced_subhypergraph
from ..partitioning import FMEngine

__all__ = ["MincutPlacement", "hpwl", "mincut_placement"]


def hpwl(h: Hypergraph, positions: Sequence[Tuple[float, float]]) -> float:
    """Half-perimeter wirelength of a placement.

    Sum over nets of the half perimeter of the bounding box of the
    net's pin positions — the standard placement cost estimate.
    """
    if len(positions) != h.num_modules:
        raise PartitionError(
            f"{len(positions)} positions for {h.num_modules} modules"
        )
    total = 0.0
    for _, pins in h.iter_nets():
        if len(pins) < 2:
            continue
        xs = [positions[p][0] for p in pins]
        ys = [positions[p][1] for p in pins]
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


@dataclass
class MincutPlacement:
    """A coarse grid placement.

    ``positions[v]`` is module v's (x, y) in the unit square — the
    centre of its grid cell; ``cell_of[v]`` its integer grid cell
    ``(col, row)`` on the ``grid x grid`` lattice.
    """

    hypergraph: Hypergraph
    positions: List[Tuple[float, float]]
    cell_of: List[Tuple[int, int]]
    grid: int
    elapsed_seconds: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def wirelength(self) -> float:
        return hpwl(self.hypergraph, self.positions)

    def occupancy(self) -> Dict[Tuple[int, int], int]:
        """Module count per grid cell."""
        out: Dict[Tuple[int, int], int] = {}
        for cell in self.cell_of:
            out[cell] = out.get(cell, 0) + 1
        return out


def _terminal_anchor(
    h: Hypergraph,
    module: int,
    inside: set,
    positions: Sequence[Tuple[float, float]],
    axis: int,
) -> Optional[float]:
    """Mean coordinate (along ``axis``) of external pins on this
    module's nets — the propagated-terminal pull, or None if all its
    nets are internal."""
    total = 0.0
    count = 0
    for net in h.nets_of(module):
        for pin in h.pins(net):
            if pin not in inside:
                total += positions[pin][axis]
                count += 1
    if count == 0:
        return None
    return total / count


def _partition_region(
    h: Hypergraph,
    members: List[int],
    positions: List[Tuple[float, float]],
    axis: int,
    fm_passes: int,
    seed: int,
) -> Tuple[List[int], List[int]]:
    """Split a region's modules into (low, high) halves along ``axis``.

    Terminal propagation seeds the split: members are ordered by the
    anchor coordinate of their external connections (internal-only
    modules fall in the middle), the balanced prefix forms the initial
    low side, and bisection FM refines the cut on the region's induced
    sub-netlist.
    """
    inside = set(members)
    keyed = []
    for index, module in enumerate(members):
        anchor = _terminal_anchor(h, module, inside, positions, axis)
        keyed.append((0.5 if anchor is None else anchor, index, module))
    keyed.sort()
    ordered = [module for _, _, module in keyed]
    half = len(ordered) // 2

    sub, module_map, _ = induced_subhypergraph(h, members)
    local_index = {module: i for i, module in enumerate(module_map)}
    sides = [1] * sub.num_modules
    for module in ordered[:half]:
        sides[local_index[module]] = 0

    if sub.num_nets >= 1 and sub.num_modules >= 4:
        engine = FMEngine(sub, sides)
        slack = 1  # allow one-module imbalance, like a bisection

        def feasible(side: int, area: float) -> bool:
            if engine.side_count[side] <= 1:
                return False
            new_diff = abs(
                (engine.side_count[0] + (1 if side == 1 else -1)) * 2
                - sub.num_modules
            )
            return new_diff <= slack

        for _ in range(fm_passes):
            before = engine.cut
            moves, _ = engine.run_pass(feasible, objective="cut")
            if engine.cut >= before or moves == 0:
                break
        sides = engine.sides

    low = [module_map[i] for i, s in enumerate(sides) if s == 0]
    high = [module_map[i] for i, s in enumerate(sides) if s == 1]
    if not low or not high:
        # Degenerate sub-netlist: fall back to the ordered halves.
        low, high = ordered[:half], ordered[half:]
    return low, high


def mincut_placement(
    h: Hypergraph,
    levels: int = 3,
    fm_passes: int = 4,
    seed: int = 0,
) -> MincutPlacement:
    """Place ``h`` on a ``2^levels`` grid by recursive min-cut slicing.

    Slicing alternates vertical/horizontal per level.  Modules start at
    the chip centre; after each level every region's modules move to
    their sub-region centre, so terminal propagation at the next level
    sees progressively refined anchor positions.
    """
    if h.num_modules < 2:
        raise PartitionError("placement needs at least 2 modules")
    if levels < 1:
        raise PartitionError(f"levels must be >= 1, got {levels}")
    grid = 1 << levels
    start = time.perf_counter()

    positions: List[Tuple[float, float]] = [
        (0.5, 0.5) for _ in range(h.num_modules)
    ]
    # Regions as (x0, y0, size, members); size halves along the split
    # axis each level (alternating), so regions stay square every two
    # levels.
    regions: List[Tuple[float, float, float, float, List[int]]] = [
        (0.0, 0.0, 1.0, 1.0, list(range(h.num_modules)))
    ]
    for level in range(2 * levels):
        axis = level % 2  # 0: split in x, 1: split in y
        next_regions = []
        for x0, y0, width, height, members in regions:
            if len(members) <= 1:
                next_regions.append((x0, y0, width, height, members))
                continue
            low, high = _partition_region(
                h, members, positions, axis, fm_passes, seed
            )
            if axis == 0:
                first = (x0, y0, width / 2, height, low)
                second = (x0 + width / 2, y0, width / 2, height, high)
            else:
                first = (x0, y0, width, height / 2, low)
                second = (x0, y0 + height / 2, width, height / 2, high)
            next_regions.extend([first, second])
        regions = next_regions
        for x0, y0, width, height, members in regions:
            centre = (x0 + width / 2, y0 + height / 2)
            for module in members:
                positions[module] = centre

    cell_of = [
        (min(grid - 1, int(x * grid)), min(grid - 1, int(y * grid)))
        for x, y in positions
    ]
    elapsed = time.perf_counter() - start
    placement = MincutPlacement(
        hypergraph=h,
        positions=positions,
        cell_of=cell_of,
        grid=grid,
        elapsed_seconds=elapsed,
        details={"levels": levels, "fm_passes": fm_passes},
    )
    placement.details["hpwl"] = placement.wirelength
    return placement
