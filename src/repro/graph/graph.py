"""Sparse weighted undirected graphs.

:class:`Graph` is the representation shared by the net-model graphs
(clique/star/path expansions of the hypergraph) and the intersection graph.
It is its symmetric adjacency in CSR form, built in bulk by
:meth:`Graph.from_edges`.  A pair given more than once accumulates weight,
which is exactly the semantics the net models need (two nets both
connecting modules *u* and *v* add their contributions to ``A_uv``).
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import GraphError

__all__ = ["Graph"]


class Graph:
    """A weighted undirected graph on vertices ``0 .. n-1``.

    ``indices[indptr[u]:indptr[u + 1]]`` are the neighbours of ``u``, in
    the order their pairs first appeared in :meth:`from_edges`'s input,
    and the same slice of ``data`` holds the edge weights.  The arrays
    are read-only.  Self-loops are rejected: by the convention of the
    paper (Section 1.1), ``A_ii = 0`` always.

    Examples
    --------
    >>> g = Graph.from_edges(3, [0, 2, 1], [1, 0, 0], [0.5, 1.0, 0.25])
    >>> g.weight(0, 1)   # the repeated pair accumulates
    0.75
    >>> list(g.neighbors(0))
    [1, 2]
    >>> g.degree(0)
    1.75
    """

    __slots__ = ("indptr", "indices", "data", "_num_edges", "_total_weight")

    def __init__(self, indptr, indices, data, total_weight: float):
        """Wrap a finished symmetric CSR layout; see :meth:`from_edges`."""
        for array in (indptr, indices, data):
            array.setflags(write=False)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._num_edges = indices.size // 2
        self._total_weight = total_weight

    @classmethod
    def from_edges(cls, num_vertices: int, edge_a, edge_b, weights) -> "Graph":
        """Build a graph from parallel edge arrays.

        Edge ``i`` adds ``weights[i]`` to the pair ``{edge_a[i],
        edge_b[i]}``.  A pair given more than once sums its weights left
        to right in array order, each vertex lists its neighbours in the
        order their pairs first appear, and :attr:`total_weight` is the
        left-to-right sum of ``weights``.  One plain (unstable) sort
        groups the repeated pairs; each pair's first position and weight
        sum are read in input order, so the sort order changes neither.
        Raises :class:`GraphError` for the first edge with an end out of
        range, a self-loop, or a weight that is not positive and finite.
        """
        n = num_vertices
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        a = np.asarray(edge_a, dtype=np.int64)
        b = np.asarray(edge_b, dtype=np.int64)
        w = np.asarray(weights, dtype=np.float64)
        if not a.shape == b.shape == w.shape == (a.size,):
            raise GraphError(
                f"edge arrays differ in shape: {a.shape}, {b.shape}, {w.shape}"
            )
        bad = np.flatnonzero(
            (a < 0) | (a >= n) | (b < 0) | (b >= n) | (a == b)
            | ~((w > 0) & (w < np.inf))  # NaN fails both
        )
        if bad.size:
            i = int(bad[0])
            u, v, x = int(a[i]), int(b[i]), float(w[i])
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range ({n} vertices)")
            if u == v:
                raise GraphError(
                    f"self-loop on vertex {u} rejected (A_ii = 0)"
                )
            raise GraphError(
                f"edge ({u},{v}) weight must be positive and finite, got {x}"
            )

        # Edge i's two directed entries sit at 2i and 2i + 1, so every
        # row meets its entries in input order.  One plain sort groups
        # equal entries; a run's smallest position is its first, which
        # orders the rows, and one bincount over the run ids sums each
        # pair's weights in input order.
        rows = np.stack([a, b], axis=1).ravel()
        cols = np.stack([b, a], axis=1).ravel()
        keys = rows * n + cols
        perm = np.argsort(keys)
        keys = keys[perm]
        boundary = np.empty(keys.size, dtype=bool)
        boundary[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        which = np.empty(keys.size, dtype=np.int64)
        which[perm] = np.cumsum(boundary) - 1
        first = (
            np.minimum.reduceat(perm, starts) if starts.size else starts
        )
        summed = np.bincount(
            which, weights=np.repeat(w, 2), minlength=starts.size
        )
        row, col = np.divmod(keys[starts], max(n, 1))
        # First positions are distinct: one key sorts rows, then firsts.
        order = np.argsort(row * rows.size + first)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
        # cumsum adds left to right; np.sum (pairwise) and, from Python
        # 3.12, builtin sum() (compensated) would round differently.
        total = float(np.cumsum(w)[-1]) if w.size else 0.0
        return cls(indptr, col[order], summed[order], total)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of distinct undirected edges."""
        return self._num_edges

    @property
    def num_nonzeros(self) -> int:
        """Number of nonzeros in the (symmetric) adjacency matrix.

        Each undirected edge contributes two nonzeros; this matches the
        nonzero accounting the paper uses for sparsity comparisons.
        """
        return 2 * self._num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return self._total_weight

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(v)
        return v in self.neighbors(u)

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; zero when the edge is absent."""
        self._check_vertex(v)
        return dict(self.neighbor_weights(u)).get(v, 0.0)

    def neighbors(self, u: int) -> Iterator[int]:
        """Iterate over neighbours of ``u``."""
        lo, hi = self._row(u)
        return iter(self.indices[lo:hi].tolist())

    def neighbor_weights(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(neighbor, weight)`` pairs of ``u``."""
        lo, hi = self._row(u)
        return zip(self.indices[lo:hi].tolist(), self.data[lo:hi].tolist())

    def degree(self, u: int) -> float:
        """Weighted degree ``d(u)``: ``u``'s row summed left to right."""
        lo, hi = self._row(u)
        return reduce(add, self.data[lo:hi].tolist(), 0.0)

    def unweighted_degree(self, u: int) -> int:
        """Number of distinct neighbours of ``u``."""
        lo, hi = self._row(u)
        return hi - lo

    def degrees(self) -> List[float]:
        """Weighted degrees of all vertices, indexed by vertex; each row
        sums left to right, as :meth:`degree` does."""
        n = self.num_vertices
        return np.bincount(
            self._entry_rows(), weights=self.data, minlength=n
        ).tolist()

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate over edges once each as ``(u, v, weight)`` with u < v,
        row by row."""
        return zip(*(array.tolist() for array in self._upper()))

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def induced_subgraph(
        self, vertices: Sequence[int]
    ) -> Tuple["Graph", List[int]]:
        """Restrict to a vertex subset; returns (subgraph, new->old map)."""
        vertex_list = sorted(set(int(v) for v in vertices))
        for v in vertex_list:
            self._check_vertex(v)
        new_id = np.full(self.num_vertices, -1, dtype=np.int64)
        new_id[np.asarray(vertex_list, dtype=np.int64)] = np.arange(
            len(vertex_list)
        )
        u, v, w = self._upper()
        keep = (new_id[u] >= 0) & (new_id[v] >= 0)
        sub = Graph.from_edges(
            len(vertex_list), new_id[u[keep]], new_id[v[keep]], w[keep]
        )
        return sub, vertex_list

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        n = self.num_vertices
        if not 0 <= u < n:
            raise GraphError(f"vertex {u} out of range (have {n} vertices)")

    def _row(self, u: int) -> Tuple[int, int]:
        """The slice bounds of ``u``'s row."""
        self._check_vertex(u)
        return int(self.indptr[u]), int(self.indptr[u + 1])

    def _entry_rows(self) -> np.ndarray:
        """The row of every stored entry."""
        n = self.num_vertices
        return np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))

    def _upper(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, weight)`` arrays of the entries with u < v, row by row."""
        rows = self._entry_rows()
        upper = rows < self.indices
        return rows[upper], self.indices[upper], self.data[upper]

    def __repr__(self) -> str:
        return (
            f"<Graph: {self.num_vertices} vertices, "
            f"{self.num_edges} edges, total weight "
            f"{self._total_weight:.4g}>"
        )

