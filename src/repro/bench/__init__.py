"""Benchmark circuits: synthetic stand-ins for the paper's test suite.

Specifications (module counts, planted-partition shapes, paper reference
rows), the hierarchical netlist generator, and the cached suite builder.
"""

from .generator import (
    generate_from_spec,
    generate_hierarchical,
    sample_net_sizes,
)
from .logic_generator import generate_logic_circuit, generate_logic_verilog
from .primary2_histogram import (
    PRIMARY2_CUT_HISTOGRAM,
    PRIMARY2_NET_SIZE_HISTOGRAM,
    PRIMARY2_NUM_NETS,
)
from .scale_curve import fit_power_law, run_scale_curve
from .specs import BENCHMARKS, BenchmarkSpec, PaperRow, get_spec, spec_names
from .suite import (
    build_circuit,
    build_suite,
    planted_sides,
    run_observed_suite,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkSpec",
    "PRIMARY2_CUT_HISTOGRAM",
    "PRIMARY2_NET_SIZE_HISTOGRAM",
    "PRIMARY2_NUM_NETS",
    "PaperRow",
    "build_circuit",
    "build_suite",
    "fit_power_law",
    "generate_from_spec",
    "generate_hierarchical",
    "generate_logic_circuit",
    "generate_logic_verilog",
    "get_spec",
    "planted_sides",
    "run_observed_suite",
    "run_scale_curve",
    "sample_net_sizes",
    "spec_names",
]
