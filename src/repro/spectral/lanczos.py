"""A Lanczos eigensolver for sparse symmetric matrices.

The paper computes the second-largest eigenpair of ``-Q = A - D`` with a
block Lanczos code, citing Kaniel–Paige–Saad convergence theory (extreme
eigenvalues converge first).  This module provides an independent,
pure-Python/numpy Lanczos implementation with *full reorthogonalisation* —
the textbook cure for the loss of orthogonality that otherwise produces
spurious duplicate Ritz values (Golub & Van Loan, ch. 9).

For the modest problem sizes of the paper's benchmarks (matrices of order
a few thousand) full reorthogonalisation is affordable and makes the solver
essentially exact once the Krylov space saturates.  The scipy ``eigsh``
backend in :mod:`repro.spectral.fiedler` cross-validates this code in the
test suite.

Known limitation (inherent to single-vector Lanczos): a multiple extreme
eigenvalue is only resolved to its full multiplicity when the iteration
hits an invariant subspace and restarts (which happens for structurally
symmetric cases, e.g. identical graph components).  When components merely
*share* the eigenvalue 0 (any disconnected graph), a generic Krylov space
reports each distinct eigenvalue once.  The Fiedler-vector layer therefore
never feeds disconnected Laplacians to this solver — it decomposes into
connected components first (:mod:`repro.spectral.fiedler`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from ..errors import SpectralError
from ..obs import add_timing, emit, incr, is_enabled

__all__ = ["LanczosResult", "lanczos_extreme"]

MatVec = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LanczosResult:
    """Converged extreme eigenpairs.

    ``eigenvalues`` are sorted ascending; ``eigenvectors[:, i]`` pairs with
    ``eigenvalues[i]``.  ``num_steps`` is the Krylov dimension used and
    ``residuals`` the per-pair residual norm estimates
    ``|beta_j * s_{j,i}|``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    num_steps: int
    residuals: np.ndarray


def _as_matvec(
    operator: Union[sp.spmatrix, np.ndarray, MatVec], n: Optional[int]
) -> Tuple[MatVec, int]:
    if callable(operator) and not isinstance(operator, np.ndarray):
        if n is None:
            raise SpectralError(
                "matrix size n must be given when operator is a callable"
            )
        return operator, n
    matrix = operator
    if matrix.shape[0] != matrix.shape[1]:
        raise SpectralError(f"matrix must be square, got {matrix.shape}")
    if sp.issparse(matrix):
        # Bind the sparse matvec directly: one fewer Python frame per
        # Lanczos step, and the CSR kernel is the same routine ``@``
        # dispatches to, so results are bit-identical.
        return matrix.dot, matrix.shape[0]
    return (lambda x: matrix @ x), matrix.shape[0]


def lanczos_extreme(
    operator: Union[sp.spmatrix, np.ndarray, MatVec],
    k: int = 2,
    which: str = "LA",
    n: Optional[int] = None,
    tol: float = 1e-9,
    max_steps: Optional[int] = None,
    seed: int = 0,
) -> LanczosResult:
    """Compute ``k`` extreme eigenpairs of a symmetric operator.

    Parameters
    ----------
    operator:
        A symmetric scipy sparse matrix, dense array, or matvec callable.
    k:
        Number of eigenpairs wanted.
    which:
        ``"LA"`` for the algebraically largest eigenvalues, ``"SA"`` for
        the smallest.  (``"SA"`` is implemented by negating the operator —
        the same trick the paper uses when it feeds ``A - D`` to Lanczos
        to get the smallest eigenpairs of ``D - A``.)
    n:
        Matrix order; required only for callables.
    tol:
        Residual tolerance, relative to the spectral scale.
    max_steps:
        Krylov dimension cap; defaults to ``n`` (at which point, with full
        reorthogonalisation, the decomposition is exact).
    seed:
        Seed for the random starting vector, making runs reproducible.

    Raises
    ------
    SpectralError
        If the requested pairs do not converge within ``max_steps``.
    """
    if which not in ("LA", "SA"):
        raise SpectralError(f"which must be 'LA' or 'SA', got {which!r}")
    matvec, size = _as_matvec(operator, n)
    if k < 1:
        raise SpectralError(f"k must be >= 1, got {k}")
    if k > size:
        raise SpectralError(f"k={k} exceeds matrix order {size}")
    if which == "SA":
        inner = matvec
        matvec = lambda x: -inner(x)  # noqa: E731 - tiny adapter

    if max_steps is None:
        max_steps = size
    max_steps = min(max_steps, size)

    profiling = is_enabled()
    t_start = time.perf_counter() if profiling else 0.0
    # Residual-decay trace: (Krylov step, max Ritz residual) at every
    # convergence check, emitted as one point event after the solve so
    # the Kaniel–Paige–Saad decay curve is a reproducible artifact.
    conv_steps: list = []
    conv_residuals: list = []
    rng = np.random.default_rng(seed)
    basis = np.zeros((size, max_steps))
    alphas = np.zeros(max_steps)
    betas = np.zeros(max_steps)  # betas[j] links v_j and v_{j+1}

    vector = rng.standard_normal(size)
    vector /= np.linalg.norm(vector)
    basis[:, 0] = vector

    steps = 0
    check_every = max(2 * k, 10)
    blocks = 1
    result: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    for j in range(max_steps):
        w = matvec(basis[:, j])
        alphas[j] = float(basis[:, j] @ w)
        # Full reorthogonalisation against the entire basis (twice is
        # enough — "twice is enough" Kahan/Parlett rule).
        for _ in range(2):
            w -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))
        steps = j + 1

        exhausted = steps == max_steps
        if beta < 1e-12:
            # Invariant subspace found.  A single Krylov block is blind
            # to eigenvalue multiplicity, so only accept after at least
            # k independent blocks (each restart reveals one more copy
            # of any multiple eigenvalue); otherwise restart with a
            # fresh random vector orthogonal to the current basis
            # (disconnected graphs land here).
            if steps >= k and blocks >= k:
                betas[j] = 0.0
                result = _ritz(basis, alphas, betas, steps, k)
                if profiling:
                    conv_steps.append(steps)
                    conv_residuals.append(
                        float(result[2].max(initial=0.0))
                    )
                converged = result[2].max(initial=0.0) <= _scale(result[0], tol)
                if converged or exhausted:
                    break
            restart = rng.standard_normal(size)
            for _ in range(2):
                restart -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ restart)
            norm = np.linalg.norm(restart)
            if norm < 1e-9 or exhausted:
                # Basis spans the whole space already.
                betas[j] = 0.0
                result = _ritz(basis, alphas, betas, steps, k)
                break
            betas[j] = 0.0
            blocks += 1
            if j + 1 < max_steps:
                basis[:, j + 1] = restart / norm
            continue

        betas[j] = beta
        if j + 1 < max_steps:
            basis[:, j + 1] = w / beta

        if steps >= k and (steps % check_every == 0 or exhausted):
            result = _ritz(basis, alphas, betas, steps, k)
            if profiling:
                conv_steps.append(steps)
                conv_residuals.append(float(result[2].max(initial=0.0)))
            if result[2].max(initial=0.0) <= _scale(result[0], tol):
                break

    if result is None:
        result = _ritz(basis, alphas, betas, steps, k)
    eigenvalues, eigenvectors, residuals = result
    if residuals.max(initial=0.0) > _scale(eigenvalues, max(tol, 1e-6)) and (
        steps < size
    ):
        raise SpectralError(
            f"Lanczos did not converge in {steps} steps "
            f"(max residual {residuals.max():.2e})"
        )

    if which == "SA":
        eigenvalues = -eigenvalues
    order = np.argsort(eigenvalues)
    if profiling:
        incr("lanczos.solves")
        incr("lanczos.iterations", steps)
        incr("lanczos.restarts", blocks - 1)
        add_timing(
            "spectral.lanczos",
            time.perf_counter() - t_start,
            n=size,
            k=k,
            iterations=steps,
            restarts=blocks - 1,
        )
        emit(
            "spectral.lanczos",
            backend="own",
            n=size,
            k=k,
            iterations=steps,
            restarts=blocks - 1,
            max_residual=float(residuals.max(initial=0.0)),
        )
        final_residual = float(residuals.max(initial=0.0))
        if not conv_steps or conv_steps[-1] != steps:
            conv_steps.append(steps)
            conv_residuals.append(final_residual)
        else:
            conv_residuals[-1] = final_residual
        emit(
            "spectral.lanczos.convergence",
            n=size,
            k=k,
            steps=conv_steps,
            residuals=conv_residuals,
        )
    return LanczosResult(
        eigenvalues=eigenvalues[order],
        eigenvectors=eigenvectors[:, order],
        num_steps=steps,
        residuals=residuals[order],
    )


def _scale(eigenvalues: np.ndarray, tol: float) -> float:
    return tol * max(1.0, float(np.abs(eigenvalues).max(initial=1.0)))


def _ritz(
    basis: np.ndarray,
    alphas: np.ndarray,
    betas: np.ndarray,
    steps: int,
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract the top-k Ritz pairs from the current tridiagonalisation."""
    diag = alphas[:steps]
    off = betas[: steps - 1] if steps > 1 else np.zeros(0)
    theta, s = sla.eigh_tridiagonal(diag, off)
    # Largest-k Ritz values (the operator is already negated for 'SA').
    take = np.argsort(theta)[-k:]
    theta_k = theta[take]
    s_k = s[:, take]
    vectors = basis[:, :steps] @ s_k
    # Residual norm of Ritz pair i is |beta_steps * s[last, i]|.
    edge_beta = betas[steps - 1] if steps - 1 < len(betas) else 0.0
    residuals = np.abs(edge_beta * s_k[-1, :])
    # Normalise vectors defensively (should already be unit length).
    norms = np.linalg.norm(vectors, axis=0)
    norms[norms == 0] = 1.0
    vectors = vectors / norms
    return theta_k, vectors, residuals
