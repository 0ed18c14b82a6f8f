"""Partitioning algorithms.

The paper's contribution (IG-Match) and every comparison point:

========  ==========================================================
IG-Match  spectral net ordering + matching-based completion (Sec. 3)
IG-Vote   spectral net ordering + voting completion (Appendix B)
EIG1      spectral module ordering under a net model (Hagen–Kahng)
RCut      ratio-cut FM with shifting/swapping/restarts (Wei–Cheng)
FM        balanced min-cut Fiduccia–Mattheyses
KL        Kernighan–Lin graph bisection
Anneal    simulated annealing on the ratio cut
========  ==========================================================

plus post-refinement (:func:`refine`) and recursive multiway
partitioning (:func:`recursive_partition`).
"""

from .annealing import AnnealingConfig, anneal
from .eig1 import EIG1Config, eig1
from .exact import exact_min_cut_bisection, exact_min_ratio_cut
from .fm import FMConfig, FMEngine, GainBuckets, fm_bipartition
from .igmatch import (
    IGMatchConfig,
    SplitEvaluation,
    SweepWarmStart,
    ig_match,
    ig_match_sweep,
)
from .igvote import IGVoteConfig, ig_vote
from .kl import KLConfig, kl_bisection, kl_bisection_graph
from .kway import (
    SpectralKWayConfig,
    net_gain_refine,
    scaled_cost,
    spectral_kway,
)
from .metrics import (
    balance_ratio,
    cut_net_indices,
    graph_edge_cut,
    is_bisection,
    net_cut_count,
    ratio_cut_cost,
    ratio_cut_of_sides,
    weighted_net_cut,
)
from .multiway import MultiwayResult, recursive_partition
from .partition import Partition, PartitionResult
from .rcut import RCutConfig, rcut
from .refine import refine
from .replication import (
    ReplicationResult,
    replicate_for_cut,
    replication_cut,
)
from .report import partition_report
from .sanchis import KWayFMConfig, kway_fm_pass, kway_fm_refine

__all__ = [
    "AnnealingConfig",
    "EIG1Config",
    "FMConfig",
    "FMEngine",
    "GainBuckets",
    "IGMatchConfig",
    "IGVoteConfig",
    "KLConfig",
    "KWayFMConfig",
    "MultiwayResult",
    "Partition",
    "PartitionResult",
    "RCutConfig",
    "ReplicationResult",
    "SpectralKWayConfig",
    "SplitEvaluation",
    "SweepWarmStart",
    "anneal",
    "balance_ratio",
    "cut_net_indices",
    "eig1",
    "exact_min_cut_bisection",
    "exact_min_ratio_cut",
    "fm_bipartition",
    "graph_edge_cut",
    "ig_match",
    "ig_match_sweep",
    "ig_vote",
    "is_bisection",
    "kl_bisection",
    "kl_bisection_graph",
    "kway_fm_pass",
    "kway_fm_refine",
    "net_cut_count",
    "net_gain_refine",
    "partition_report",
    "ratio_cut_cost",
    "ratio_cut_of_sides",
    "rcut",
    "recursive_partition",
    "refine",
    "replicate_for_cut",
    "replication_cut",
    "scaled_cost",
    "spectral_kway",
    "weighted_net_cut",
]
