"""Incremental (ECO) partitioning: netlist deltas and warm starts.

An engineering change order arrives as a :class:`NetlistDelta` — a
value object describing module/net additions, removals, and edits
against a base hypergraph, with a canonical JSON wire format
(:data:`DELTA_FORMAT`).  Applying a delta yields the edited hypergraph
plus the index maps (:class:`DeltaApplication`) that let the warm paths
reuse what the delta did not touch: the IG-Match sweep re-runs a window
around the previous answer's best split on a cold-built intersection
graph, and FM refines from the previous answer's sides
(:mod:`repro.delta.warm`).

The serving integration (``POST /partition/delta``) lives in
:mod:`repro.service`; the measurement harness in ``repro.bench
--eco-scenario``.
"""

from .model import (
    DELTA_FORMAT,
    DeltaApplication,
    ModuleAdd,
    NetAdd,
    NetlistDelta,
    delta_from_maps,
    dumps_delta,
    load_delta,
    loads_delta,
    random_delta,
    save_delta,
)
from .warm import WARM_WINDOW, warm_partition

__all__ = [
    "DELTA_FORMAT",
    "DeltaApplication",
    "ModuleAdd",
    "NetAdd",
    "NetlistDelta",
    "WARM_WINDOW",
    "delta_from_maps",
    "dumps_delta",
    "load_delta",
    "loads_delta",
    "random_delta",
    "save_delta",
    "warm_partition",
]
