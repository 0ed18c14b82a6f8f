"""repro — intersection-graph spectral ratio-cut partitioning.

A full reproduction of J. Cong, L. Hagen and A. Kahng, *Net Partitions
Yield Better Module Partitions* (UCLA CSD-910075 / DAC 1992): the
IG-Match algorithm, its IG-Vote / EIG1 / RCut / FM / KL baselines, the
netlist-hypergraph and intersection-graph substrates, a Lanczos spectral
engine, and a synthetic MCNC-style benchmark suite.

Quickstart
----------
>>> from repro import generate_hierarchical, ig_match
>>> h = generate_hierarchical(num_modules=200, num_nets=220,
...                           natural_fraction=0.3, crossing_nets=4,
...                           seed=1)
>>> result = ig_match(h)
>>> result.nets_cut <= 10
True
"""

# Set before the subpackage imports below, which read it while this
# module is still initialising.
__version__ = "1.0.0"

from .bench import (
    BENCHMARKS,
    BenchmarkSpec,
    build_circuit,
    build_suite,
    generate_from_spec,
    generate_hierarchical,
    get_spec,
    spec_names,
)
from . import obs
from .clustering import MultilevelConfig, multilevel_partition
from .errors import (
    BenchmarkError,
    GraphError,
    HypergraphError,
    MatchingError,
    ParseError,
    PartitionError,
    ReproError,
    SpectralError,
    ValidationError,
)
from .graph import Graph, laplacian_matrix
from .hypergraph import (
    CsrHypergraph,
    Hypergraph,
    HypergraphBuilder,
    describe,
    load_json,
    load_net,
    save_json,
    save_net,
)
from .intersection import intersection_graph, intersection_nonzeros
from .netmodels import available_models, get_model
from .partitioning import (
    AnnealingConfig,
    EIG1Config,
    FMConfig,
    IGMatchConfig,
    IGVoteConfig,
    KLConfig,
    MultiwayResult,
    Partition,
    PartitionResult,
    RCutConfig,
    anneal,
    eig1,
    fm_bipartition,
    ig_match,
    ig_vote,
    kl_bisection,
    rcut,
    recursive_partition,
    refine,
)
from .placement import MincutPlacement, hpwl, mincut_placement
from .spectral import fiedler_vector, lanczos_extreme, spectral_ordering
from . import service

__all__ = [
    "AnnealingConfig",
    "BENCHMARKS",
    "BenchmarkError",
    "BenchmarkSpec",
    "EIG1Config",
    "FMConfig",
    "Graph",
    "GraphError",
    "Hypergraph",
    "HypergraphBuilder",
    "HypergraphError",
    "IGMatchConfig",
    "IGVoteConfig",
    "KLConfig",
    "MatchingError",
    "MincutPlacement",
    "MultilevelConfig",
    "MultiwayResult",
    "ParseError",
    "Partition",
    "PartitionError",
    "PartitionResult",
    "RCutConfig",
    "ReproError",
    "SpectralError",
    "ValidationError",
    "anneal",
    "available_models",
    "build_circuit",
    "build_suite",
    "describe",
    "eig1",
    "fiedler_vector",
    "fm_bipartition",
    "generate_from_spec",
    "generate_hierarchical",
    "get_model",
    "get_spec",
    "hpwl",
    "ig_match",
    "ig_vote",
    "intersection_graph",
    "intersection_nonzeros",
    "kl_bisection",
    "lanczos_extreme",
    "laplacian_matrix",
    "load_json",
    "load_net",
    "mincut_placement",
    "multilevel_partition",
    "obs",
    "rcut",
    "recursive_partition",
    "refine",
    "save_json",
    "save_net",
    "service",
    "spec_names",
    "spectral_ordering",
    "__version__",
]
