"""Fiedler vectors: the second-smallest Laplacian eigenpair.

Given a connected graph with Laplacian ``Q = D - A``, the smallest
eigenvalue is 0 (constant eigenvector) and the second-smallest eigenpair
``(lambda_2, x)`` drives both the EIG1 module ordering and the IG-Match
net ordering.  Theorem 1 (Hagen–Kahng) guarantees
``lambda_2 / n <= c_opt`` for the optimal ratio cut cost ``c_opt``.

The eigenpair comes from ARPACK's ``scipy.sparse.linalg.eigsh`` (an
implicitly restarted Lanczos method, standing in for the paper's
block-Lanczos library code) run on the shifted operator ``c·I - Q``, so
the wanted pair is *largest* — the regime where Lanczos converges
fastest, and the paper's trick of feeding ``A - D`` to its Lanczos code.
Graphs of at most 16 vertices use a dense ``numpy.linalg.eigh`` solve.

Disconnected graphs have ``lambda_2 = 0`` with a component-indicator
eigenvector, which carries no ordering information *within* components;
:func:`fiedler_vector` therefore requires connectivity and
:func:`component_spectral_values` handles the general case by solving each
component independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import SpectralError
from ..graph import Graph, adjacency_matrix, connected_components
from ..obs import emit, incr, span

__all__ = [
    "FiedlerResult",
    "component_spectral_values",
    "fiedler_vector",
]


@dataclass(frozen=True)
class FiedlerResult:
    """The second-smallest Laplacian eigenpair of a connected graph."""

    eigenvalue: float
    vector: np.ndarray

    def ratio_cut_lower_bound(self) -> float:
        """Theorem 1's bound: ``lambda_2 / n <= optimal ratio cut``."""
        return self.eigenvalue / len(self.vector)


def _shifted_laplacian(g: Graph) -> Tuple[sp.csr_matrix, float]:
    """Return ``c·I - Q`` and ``c``, with ``c >= lambda_max(Q)``.

    By Gershgorin, ``lambda_max(Q) <= 2 * max_degree``, so the shift makes
    the wanted (small) eigenvalues of ``Q`` the *large* eigenvalues of the
    shifted operator.  Assembled as ``A + diag(c - d)`` in one sparse add
    of the graph's CSR adjacency, which gives bitwise the matrix
    ``c·I - (D - A)``: each entry is rounded once either way.
    """
    degrees = g.degrees()
    shift = 2.0 * max(degrees, default=0.0) + 1.0
    diagonal = sp.diags(shift - np.asarray(degrees, dtype=float), format="csr")
    return adjacency_matrix(g) + diagonal, shift


class _CountingOperator(spla.LinearOperator):
    """``matrix @ x`` for ``eigsh``, counting the calls.

    ``eigsh`` is an implicitly restarted Lanczos method; one matvec is
    one Lanczos step, so :attr:`calls` is the iteration statistic
    profiling reports.  ``matvec`` is bound straight to the product:
    ``eigsh`` only hands it 1-D vectors of the right length, so
    ``LinearOperator``'s generic shape checks would run at every step
    for nothing.
    """

    def __init__(self, matrix: sp.csr_matrix):
        super().__init__(matrix.dtype, matrix.shape)
        self.matrix = matrix
        self.calls = 0

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        self.calls += 1
        return self.matrix @ x

    matvec = _matvec


def _canonical_sign(vector: np.ndarray) -> np.ndarray:
    """Fix the eigenvector's sign so results are deterministic.

    The first component of largest magnitude is made positive.
    """
    idx = int(np.argmax(np.abs(vector)))
    if vector[idx] < 0:
        return -vector
    return vector


def fiedler_vector(
    g: Graph, seed: int = 0, tol: float = 0.0
) -> FiedlerResult:
    """Compute ``(lambda_2, x)`` of the Laplacian of a connected graph.

    ``tol`` is ``eigsh``'s relative accuracy target; ``0`` asks for
    machine precision, and looser values trade accuracy for fewer
    Lanczos steps (the relaxation the paper's conclusion proposes).
    ``seed`` fixes the starting vector.  Raises :class:`SpectralError`
    for graphs with fewer than 2 vertices or more than one connected
    component.
    """
    n = g.num_vertices
    if n < 2:
        raise SpectralError(
            f"Fiedler vector undefined for a {n}-vertex graph"
        )
    components = connected_components(g)
    if len(components) > 1:
        raise SpectralError(
            f"graph is disconnected ({len(components)} components); "
            "use component_spectral_values or partition components first"
        )

    with span("spectral.fiedler", n=n) as sp:
        shifted, shift = _shifted_laplacian(g)
        if n <= 16:
            # eigsh needs k < n and behaves poorly on tiny systems;
            # a dense solve is exact and cheap here.
            sp.set(method="dense")
            mu, vecs = np.linalg.eigh(shifted.toarray())
            mu_fiedler = mu[-2]
            vector = vecs[:, -2]
        else:
            rng = np.random.default_rng(seed)
            v0 = rng.standard_normal(n)
            with span("spectral.lanczos", n=n, k=2) as lsp:
                operator = _CountingOperator(shifted)
                mu, vecs = spla.eigsh(
                    operator, k=2, which="LA", tol=tol, v0=v0
                )
                lsp.set(iterations=operator.calls)
                incr("lanczos.solves")
                incr("lanczos.iterations", operator.calls)
                emit("spectral.lanczos", n=n, k=2, iterations=operator.calls)
            order = np.argsort(mu)
            mu_fiedler = mu[order[0]]
            vector = vecs[:, order[0]]

        eigenvalue = float(shift - mu_fiedler)
        sp.set(eigenvalue=round(eigenvalue, 9))
    if eigenvalue < 0 and eigenvalue > -1e-8:
        eigenvalue = 0.0
    return FiedlerResult(
        eigenvalue=eigenvalue,
        vector=_canonical_sign(np.asarray(vector, dtype=float)),
    )


def component_spectral_values(g: Graph, seed: int = 0) -> np.ndarray:
    """A spectral coordinate for every vertex of a possibly-disconnected
    graph.

    Each connected component is solved independently; component ``i``
    (ordered by decreasing size, ties by smallest vertex) contributes its
    own Fiedler coordinates, offset so components occupy disjoint value
    ranges.  Sorting the returned vector therefore groups components
    contiguously and orders each component spectrally — the natural
    generalisation of the Fiedler ordering that the sweep algorithms need.

    Components of size 1 or 2 get constant / index-based coordinates.
    """
    n = g.num_vertices
    if n == 0:
        return np.zeros(0)
    values = np.zeros(n)
    components = connected_components(g)
    components.sort(key=lambda c: (-len(c), c[0]))
    offset = 0.0
    for comp in components:
        size = len(comp)
        if size == 1:
            local = np.zeros(1)
            span = 1.0
        elif size == 2:
            local = np.array([0.0, 1.0])
            span = 2.0
        else:
            sub, vertex_map = g.induced_subgraph(comp)
            res = fiedler_vector(sub, seed=seed)
            local = res.vector
            span = float(local.max() - local.min()) + 1.0
            local = local - local.min()
            comp = vertex_map
        for vertex, value in zip(comp, local):
            values[vertex] = offset + value
        offset += span + 1.0
    return values
