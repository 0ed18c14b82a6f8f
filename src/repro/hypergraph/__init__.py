"""Netlist hypergraph substrate.

The circuit netlist hypergraph ``H = (V, E')`` — modules as vertices, signal
nets as hyperedges — plus construction, validation, statistics, file I/O and
transformations.
"""

from .builder import HypergraphBuilder
from .formats import (
    dumps_bookshelf,
    dumps_hgr,
    dumps_verilog,
    load_bookshelf,
    load_hgr,
    load_verilog,
    loads_bookshelf,
    loads_hgr,
    loads_verilog,
    save_bookshelf,
    save_hgr,
    save_verilog,
)
from .hypergraph import Hypergraph
from .io import (
    dumps_net,
    from_json,
    load_json,
    load_net,
    loads_net,
    save_json,
    save_net,
    to_json,
)
from .stats import (
    HypergraphStats,
    describe,
    module_degree_histogram,
    net_size_histogram,
)
from .transform import (
    drop_degenerate_nets,
    induced_subhypergraph,
    merge_modules,
    relabel_modules,
    threshold_nets,
)
from .validate import (
    Issue,
    ValidationReport,
    check,
    validate,
)

__all__ = [
    "Hypergraph",
    "HypergraphBuilder",
    "HypergraphStats",
    "Issue",
    "ValidationReport",
    "check",
    "describe",
    "drop_degenerate_nets",
    "dumps_bookshelf",
    "dumps_hgr",
    "dumps_net",
    "dumps_verilog",
    "from_json",
    "induced_subhypergraph",
    "load_bookshelf",
    "load_hgr",
    "load_json",
    "load_net",
    "load_verilog",
    "loads_bookshelf",
    "loads_hgr",
    "loads_net",
    "loads_verilog",
    "merge_modules",
    "module_degree_histogram",
    "net_size_histogram",
    "relabel_modules",
    "save_bookshelf",
    "save_hgr",
    "save_json",
    "save_net",
    "save_verilog",
    "threshold_nets",
    "to_json",
    "validate",
]
