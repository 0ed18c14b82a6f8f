"""Matrix assembly: adjacency ``A``, degree ``D`` and Laplacian ``Q = D - A``.

These are the matrices of Section 1.1 of the paper.  All are returned as
scipy sparse matrices suitable for the ``eigsh`` solves in
:mod:`repro.spectral`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Graph

__all__ = [
    "adjacency_matrix",
    "degree_matrix",
    "laplacian_matrix",
]


def adjacency_matrix(g: "Graph") -> sp.csr_matrix:
    """The symmetric weighted adjacency matrix ``A`` of ``g`` (CSR).

    Assembled from the graph's own arrays with each row's columns
    sorted, so a product with ``A`` sums every row in column order
    whatever order the graph lists the neighbours in.
    """
    n = g.num_vertices
    return sp.csr_matrix(
        (g.data, g.indices, g.indptr), shape=(n, n)
    ).sorted_indices()


def degree_matrix(g: "Graph") -> sp.csr_matrix:
    """The diagonal matrix ``D`` with ``D_ii = d(v_i)`` (CSR)."""
    return sp.diags(
        np.asarray(g.degrees(), dtype=float), format="csr"
    )


def laplacian_matrix(g: "Graph") -> sp.csr_matrix:
    """The Laplacian ``Q = D - A`` used throughout the paper.

    ``Q`` is symmetric positive semidefinite; its smallest eigenvalue is 0
    with eigenvector ``(1, 1, ..., 1)/sqrt(n)``, and its second-smallest
    eigenvalue bounds the optimal ratio cut from below (Theorem 1).
    """
    return (degree_matrix(g) - adjacency_matrix(g)).tocsr()
