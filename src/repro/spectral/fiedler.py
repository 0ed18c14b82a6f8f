"""Fiedler vectors: the second-smallest Laplacian eigenpair.

Given a connected graph with Laplacian ``Q = D - A``, the smallest
eigenvalue is 0 (constant eigenvector) and the second-smallest eigenpair
``(lambda_2, x)`` drives both the EIG1 module ordering and the IG-Match
net ordering.  Theorem 1 (Hagen–Kahng) guarantees
``lambda_2 / n <= c_opt`` for the optimal ratio cut cost ``c_opt``.

Two interchangeable backends are provided:

* ``"lanczos"`` — our own solver (:mod:`repro.spectral.lanczos`), run on
  the shifted operator ``c·I - Q`` so the wanted pair is *largest*, the
  regime where Lanczos converges fastest (exactly the paper's trick of
  feeding ``A - D`` to its Lanczos code).
* ``"scipy"`` — ``scipy.sparse.linalg.eigsh`` on the same shifted
  operator, used for cross-validation and as a robust default.

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
from ..graph import Graph, connected_components, laplacian_matrix
from ..obs import emit, incr, is_enabled, span
from .lanczos import lanczos_extreme

__all__ = [
    "FiedlerResult",
    "component_spectral_values",
    "fiedler_vector",
]

_BACKENDS = ("scipy", "lanczos")


@dataclass(frozen=True)
class FiedlerResult:
    """The second-smallest Laplacian eigenpair of a connected graph."""

    eigenvalue: float
    vector: np.ndarray
    backend: str

    def ratio_cut_lower_bound(self) -> float:
        """Theorem 1's bound: ``lambda_2 / n <= optimal ratio cut``."""
        return self.eigenvalue / len(self.vector)


def _shifted_laplacian(g: Graph) -> Tuple[sp.csr_matrix, float]:
    """Return ``c·I - Q`` and ``c``, with ``c >= lambda_max(Q)``.

    By Gershgorin, ``lambda_max(Q) <= 2 * max_degree``, so the shift makes
    the wanted (small) eigenvalues of ``Q`` the *large* eigenvalues of the
    shifted operator.
    """
    laplacian = laplacian_matrix(g)
    degrees = g.degrees()
    shift = 2.0 * max(degrees, default=0.0) + 1.0
    n = g.num_vertices
    return (sp.identity(n, format="csr") * shift - laplacian).tocsr(), shift


def _counting_operator(matrix: sp.csr_matrix):
    """Wrap a sparse matrix so ARPACK matvecs can be counted.

    scipy's ``eigsh`` is an implicitly restarted Lanczos method; one
    matvec is one Lanczos step, so the call count is the natural
    iteration statistic when profiling the ``"scipy"`` backend.  Only
    used while instrumentation is on — the wrapper costs one Python
    call per matvec.
    """
    calls = [0]

    def matvec(x: np.ndarray) -> np.ndarray:
        calls[0] += 1
        return matrix @ x

    operator = spla.LinearOperator(
        matrix.shape, matvec=matvec, dtype=matrix.dtype
    )
    return operator, calls


def _canonical_sign(vector: np.ndarray) -> np.ndarray:
    """Fix the eigenvector's sign so results are deterministic.

    The first component of largest magnitude is made positive.
    """
    idx = int(np.argmax(np.abs(vector)))
    if vector[idx] < 0:
        return -vector
    return vector


def fiedler_vector(
    g: Graph, backend: str = "scipy", seed: int = 0, tol: float = 1e-9
) -> FiedlerResult:
    """Compute ``(lambda_2, x)`` of the Laplacian of a connected graph.

    Raises :class:`SpectralError` for graphs with fewer than 2 vertices or
    more than one connected component.
    """
    if backend not in _BACKENDS:
        raise SpectralError(
            f"unknown backend {backend!r}; available: {_BACKENDS}"
        )
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

    with span("spectral.fiedler", backend=backend, n=n) as sp:
        shifted, shift = _shifted_laplacian(g)
        if backend == "lanczos":
            res = lanczos_extreme(
                shifted, k=2, which="LA", tol=tol, seed=seed
            )
            # Shifted-largest come back ascending; the largest is the
            # trivial pair (lambda=0 of Q), second-largest is Fiedler.
            mu_fiedler = res.eigenvalues[0]
            vector = res.eigenvectors[:, 0]
        else:
            if n <= 16:
                # eigsh needs k < n and behaves poorly on tiny systems;
                # a dense solve is exact and cheap here.
                sp.set(method="dense")
                dense = shifted.toarray()
                mu, vecs = np.linalg.eigh(dense)
                mu_fiedler = mu[-2]
                vector = vecs[:, -2]
            else:
                rng = np.random.default_rng(seed)
                v0 = rng.standard_normal(n)
                with span(
                    "spectral.lanczos", backend="scipy-eigsh", n=n, k=2
                ) as lsp:
                    if is_enabled():
                        operator, calls = _counting_operator(shifted)
                    else:
                        operator, calls = shifted, [0]
                    mu, vecs = spla.eigsh(
                        operator, k=2, which="LA", tol=0, v0=v0
                    )
                    if is_enabled():
                        lsp.set(iterations=calls[0])
                        incr("lanczos.solves")
                        incr("lanczos.iterations", calls[0])
                        emit(
                            "spectral.lanczos",
                            backend="scipy-eigsh",
                            n=n,
                            k=2,
                            iterations=calls[0],
                        )
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
        backend=backend,
    )


def component_spectral_values(
    g: Graph, backend: str = "scipy", seed: int = 0
) -> np.ndarray:
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
            res = fiedler_vector(sub, backend=backend, seed=seed)
            local = res.vector
            span = float(local.max() - local.min()) + 1.0
            local = local - local.min()
            comp = vertex_map
        for vertex, value in zip(comp, local):
            values[vertex] = offset + value
        offset += span + 1.0
    return values
