"""Experiment X6 — relaxed eigensolver convergence (§5).

The paper's conclusion: "The eigenvector computation can be sped up
further ... by relaxation of the numerical convergence criteria."  This
experiment runs the IG-Match pipeline with the ``eigsh`` Fiedler solve
at several tolerances and reports the eigensolve time and the resulting
partition quality — quantifying how much accuracy the sweep actually
needs.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from ..bench import build_circuit
from ..intersection import intersection_graph
from ..partitioning import IGMatchConfig, ig_match
from ..spectral import spectral_ordering
from .tables import ExperimentResult, format_ratio

__all__ = ["run_tolerance_ablation"]


def run_tolerance_ablation(
    names: Sequence[str] = ("Test02",),
    tolerances: Sequence[float] = (1e-9, 1e-5, 1e-2),
    scale: float = 1.0,
    seed: int = 0,
    split_stride: int = 1,
) -> ExperimentResult:
    """IG-Match quality vs Lanczos convergence tolerance."""
    rows: List[List[object]] = []
    for name in names:
        h = build_circuit(name, seed=seed, scale=scale)
        graph = intersection_graph(h, "paper")
        for tol in tolerances:
            start = time.perf_counter()
            order = spectral_ordering(graph, seed=seed, tol=tol)
            eig_seconds = time.perf_counter() - start
            result = ig_match(
                h,
                IGMatchConfig(seed=seed, split_stride=split_stride),
                order=order,
            )
            rows.append(
                [
                    name,
                    f"{tol:g}",
                    f"{eig_seconds:.3f}",
                    result.areas,
                    result.nets_cut,
                    format_ratio(result.ratio_cut),
                ]
            )
    return ExperimentResult(
        experiment_id="X6/Tolerance",
        title="Relaxed Lanczos convergence vs partition quality, "
        f"scale={scale:g}",
        headers=[
            "Circuit",
            "Tolerance",
            "Eigensolve s",
            "Areas",
            "Nets cut",
            "Ratio cut",
        ],
        rows=rows,
        notes=[
            "paper §5: relaxing the convergence criteria speeds the "
            "eigensolve; the sweep's robustness limits the quality cost",
        ],
    )
