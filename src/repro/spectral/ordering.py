"""Linear orderings induced by spectral coordinates.

Sorting the Fiedler vector gives the linear ordering of modules (EIG1) or
nets (IG-Vote / IG-Match) that the sweep algorithms split.  Ties are broken
by index so orderings are deterministic — determinism and "stability" are
selling points the paper emphasises over restart-based methods.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

from ..errors import SpectralError
from ..graph import Graph
from ..obs import span
from .fiedler import component_spectral_values, fiedler_vector

__all__ = ["ordering_from_values", "spectral_ordering"]


def ordering_from_values(values: Union[np.ndarray, List[float]]) -> List[int]:
    """Indices sorted ascending by value; ties broken by index."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise SpectralError(
            f"expected a 1-D value vector, got shape {array.shape}"
        )
    return [int(i) for i in np.argsort(array, kind="stable")]


def spectral_ordering(
    g: Graph, seed: int = 0, tol: float = 0.0
) -> List[int]:
    """Fiedler ordering of the vertices of ``g``.

    Connected graphs use the Fiedler vector directly; disconnected graphs
    fall back to per-component spectral coordinates (see
    :func:`repro.spectral.fiedler.component_spectral_values`), which keep
    components contiguous in the ordering.  ``tol`` is forwarded to the
    eigensolver of a connected graph: relaxing it is the speed/quality
    knob the paper's conclusion mentions.
    """
    if g.num_vertices <= 2:
        return list(range(g.num_vertices))
    with span("spectral.ordering", n=g.num_vertices):
        try:
            values = fiedler_vector(g, seed=seed, tol=tol).vector
        except SpectralError:
            values = component_spectral_values(g, seed=seed)
        return ordering_from_values(values)
