"""The from-scratch bipartite-matching reference.

:class:`repro.matching.IncrementalMatching` keeps the crossing graph
``B`` implicit and its maximum matching and König classes up to date
across the sweep.  This module recomputes them from nothing, on an
explicit :class:`BipartiteGraph`:

* maximum matching, by the paper's BFS augmenting paths
  (:func:`augmenting_path_matching`, Figure 5) and by Hopcroft–Karp
  (:func:`hopcroft_karp`), O(E·sqrt(V)), as an independent cross-check;
* the König / Dulmage–Mendelsohn decomposition (:func:`decompose`,
  Figure 3, Theorems 2–3), the one from-scratch König classifier, which
  ``tests.oracles.classify_from_scratch`` applies to a matcher's split;
* :func:`crossing_graph` and :func:`check_matching`, which read a
  matcher's current split into these terms.

Matchings are symmetric dicts ``{u: v, v: u}``.

The decomposition classifies every vertex of ``B = (L, R, E_B)`` under
a *maximum* matching M by alternating searches from the unmatched
vertices:

* ``Even(L)`` ⊆ L — reachable from an unmatched L vertex at even distance
  (winners).  Contains ``U_L``.
* ``Odd(L)``  ⊆ R — reachable from U_L at odd distance (losers).
* ``Even(R)`` ⊆ R, ``Odd(R)`` ⊆ L — symmetric, from U_R.
* The *core* ``B' = (L', R')`` — matched vertices reachable from no
  unmatched vertex; M restricted to B' is a perfect matching of B'.

Consequences used by IG-Match:

* ``Odd(L) ∪ Odd(R)`` is the Hasan–Liu *critical set* — the vertices in
  every minimum vertex cover (footnote 4 of the paper); it is independent
  of which maximum matching was used.
* ``Odd(L) ∪ Odd(R) ∪ L'`` (or symmetrically with R') is a minimum vertex
  cover; its complement ``Even(L) ∪ Even(R) ∪ R'`` is a maximum
  independent set (Theorems 2 and 3 — König's theorem).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.errors import MatchingError

__all__ = [
    "BipartiteGraph",
    "Decomposition",
    "apply_augmenting_path",
    "augmenting_path_matching",
    "check_matching",
    "crossing_graph",
    "decompose",
    "decompose_bipartite",
    "find_augmenting_path",
    "hopcroft_karp",
    "matching_size",
]


class BipartiteGraph:
    """An undirected bipartite graph with arbitrary hashable vertex ids.

    Examples
    --------
    >>> b = BipartiteGraph(["l0", "l1"], ["r0"])
    >>> b.add_edge("l0", "r0")
    >>> sorted(b.neighbors("r0"))
    ['l0']
    """

    __slots__ = ("_left", "_right", "_adj", "_num_edges")

    def __init__(self, left: Iterable = (), right: Iterable = ()):
        self._left: Set = set(left)
        self._right: Set = set(right)
        overlap = self._left & self._right
        if overlap:
            raise MatchingError(
                f"vertices on both sides: {sorted(map(repr, overlap))[:5]}"
            )
        self._adj: Dict = {v: set() for v in self._left | self._right}
        self._num_edges = 0

    # ------------------------------------------------------------------
    @property
    def left(self) -> Set:
        """The left vertex set (do not mutate)."""
        return self._left

    @property
    def right(self) -> Set:
        """The right vertex set (do not mutate)."""
        return self._right

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def add_left(self, v) -> None:
        """Add an isolated vertex to the left side."""
        if v in self._right:
            raise MatchingError(f"vertex {v!r} already on the right side")
        if v not in self._left:
            self._left.add(v)
            self._adj[v] = set()

    def add_right(self, v) -> None:
        """Add an isolated vertex to the right side."""
        if v in self._left:
            raise MatchingError(f"vertex {v!r} already on the left side")
        if v not in self._right:
            self._right.add(v)
            self._adj[v] = set()

    def add_edge(self, left_v, right_v) -> None:
        """Add the edge ``{left_v, right_v}`` (idempotent)."""
        if left_v not in self._left:
            raise MatchingError(f"{left_v!r} is not a left vertex")
        if right_v not in self._right:
            raise MatchingError(f"{right_v!r} is not a right vertex")
        if right_v not in self._adj[left_v]:
            self._adj[left_v].add(right_v)
            self._adj[right_v].add(left_v)
            self._num_edges += 1

    def has_edge(self, u, v) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v) -> Iterator:
        try:
            return iter(self._adj[v])
        except KeyError:
            raise MatchingError(f"unknown vertex {v!r}") from None

    def degree(self, v) -> int:
        try:
            return len(self._adj[v])
        except KeyError:
            raise MatchingError(f"unknown vertex {v!r}") from None

    def edges(self) -> Iterator[Tuple]:
        """Iterate over edges as ``(left_vertex, right_vertex)``."""
        for l in self._left:
            for r in self._adj[l]:
                yield (l, r)

    def side_of(self, v) -> str:
        """``"L"`` or ``"R"``."""
        if v in self._left:
            return "L"
        if v in self._right:
            return "R"
        raise MatchingError(f"unknown vertex {v!r}")

    def validate_matching(self, match: Dict) -> None:
        """Raise unless ``match`` is a valid matching of this graph.

        ``match`` maps each matched vertex to its partner, symmetrically.
        """
        for u, v in match.items():
            if match.get(v) != u:
                raise MatchingError(
                    f"matching not symmetric at {u!r} -> {v!r}"
                )
            if not self.has_edge(u, v):
                raise MatchingError(
                    f"matched pair ({u!r}, {v!r}) is not an edge"
                )

    def __repr__(self) -> str:
        return (
            f"<BipartiteGraph: |L|={len(self._left)}, "
            f"|R|={len(self._right)}, {self._num_edges} edges>"
        )


# ----------------------------------------------------------------------
# Maximum matching
# ----------------------------------------------------------------------
def matching_size(match: Dict) -> int:
    """Number of edges in a symmetric matching dict."""
    return len(match) // 2


def find_augmenting_path(
    graph: BipartiteGraph, match: Dict, start
) -> Optional[List]:
    """BFS for an augmenting path from unmatched vertex ``start``.

    Alternates non-matching / matching edges.  Returns the path as a
    vertex list (start first) or ``None`` when no augmenting path exists.
    This is the standard technique the paper cites [23].
    """
    if start in match:
        return None
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        # From u we cross a NON-matching edge (u is either the unmatched
        # start or was entered via a matching edge).
        for v in graph.neighbors(u):
            if v in parent or match.get(u) == v:
                continue
            parent[v] = u
            partner = match.get(v)
            if partner is None:
                # v is unmatched: augmenting path found.
                path = [v]
                node = u
                while node is not None:
                    path.append(node)
                    node = parent[node]
                path.reverse()
                return path
            if partner not in parent:
                parent[partner] = v
                queue.append(partner)
    return None


def apply_augmenting_path(match: Dict, path: List) -> None:
    """Flip matched/unmatched edges along an augmenting path, in place."""
    for i in range(0, len(path) - 1, 2):
        u, v = path[i], path[i + 1]
        match[u] = v
        match[v] = u


def augmenting_path_matching(graph: BipartiteGraph) -> Dict:
    """Maximum matching by repeated BFS augmentation (the paper's method)."""
    match: Dict = {}
    for start in graph.left:
        path = find_augmenting_path(graph, match, start)
        if path is not None:
            apply_augmenting_path(match, path)
    return match


def hopcroft_karp(graph: BipartiteGraph) -> Dict:
    """Maximum matching via Hopcroft–Karp, O(E·sqrt(V))."""
    INF = float("inf")
    match: Dict = {}
    dist: Dict = {}
    left = list(graph.left)

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if u not in match:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                partner = match.get(v)
                if partner is None:
                    found = True
                elif dist[partner] == INF:
                    dist[partner] = dist[u] + 1
                    queue.append(partner)
        return found

    def dfs(u) -> bool:
        for v in graph.neighbors(u):
            partner = match.get(v)
            if partner is None or (
                dist.get(partner) == dist[u] + 1 and dfs(partner)
            ):
                match[u] = v
                match[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in left:
            if u not in match:
                dfs(u)
    return match


# ----------------------------------------------------------------------
# König decomposition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Decomposition:
    """The six vertex classes of a matched bipartite graph."""

    even_left: FrozenSet
    odd_left: FrozenSet
    even_right: FrozenSet
    odd_right: FrozenSet
    core_left: FrozenSet
    core_right: FrozenSet

    # -- derived sets ---------------------------------------------------
    @property
    def critical_set(self) -> FrozenSet:
        """Vertices in *every* minimum vertex cover (Hasan–Liu)."""
        return self.odd_left | self.odd_right

    def minimum_vertex_cover(self, cover_core_left: bool = True) -> FrozenSet:
        """A minimum vertex cover: the critical set plus one core side."""
        core = self.core_left if cover_core_left else self.core_right
        return self.critical_set | core

    def maximum_independent_set(
        self, cover_core_left: bool = True
    ) -> FrozenSet:
        """An MIS: the complement of :meth:`minimum_vertex_cover`."""
        core = self.core_right if cover_core_left else self.core_left
        return self.even_left | self.even_right | core


def _alternating_reach(
    starts: Iterable,
    neighbors: Callable[[object], Iterator],
    partner: Callable[[object], object],
) -> Set:
    """All vertices on alternating paths from the unmatched ``starts``.

    Traversal leaves a start (or a vertex entered via matching edge)
    through non-matching edges, and continues through matching edges.
    Returns the full reachable set (both parities).
    """
    reached: Set = set(starts)
    queue = deque(reached)
    while queue:
        u = queue.popleft()
        for v in neighbors(u):
            if v in reached or partner(u) == v:
                continue
            reached.add(v)
            mate = partner(v)
            if mate is not None and mate not in reached:
                reached.add(mate)
                queue.append(mate)
    return reached


def decompose(
    left: Iterable,
    right: Iterable,
    neighbors: Callable[[object], Iterator],
    partner: Callable[[object], object],
) -> Decomposition:
    """Decompose an abstract matched bipartite graph.

    Parameters
    ----------
    left, right:
        The two vertex sets.
    neighbors:
        Callable yielding a vertex's neighbours (all on the other side).
    partner:
        Callable returning a vertex's matched partner or ``None``.  The
        matching must be *maximum*; the decomposition verifies the
        tell-tale violation (an unmatched-to-unmatched alternating
        reach) and raises :class:`MatchingError` if found.
    """
    left_set = set(left)
    right_set = set(right)

    unmatched_left = [v for v in left_set if partner(v) is None]
    unmatched_right = [v for v in right_set if partner(v) is None]

    reach_from_left = _alternating_reach(unmatched_left, neighbors, partner)
    reach_from_right = _alternating_reach(unmatched_right, neighbors, partner)

    even_left = frozenset(reach_from_left & left_set)
    odd_left = frozenset(reach_from_left & right_set)
    even_right = frozenset(reach_from_right & right_set)
    odd_right = frozenset(reach_from_right & left_set)

    if any(partner(v) is None for v in odd_left) or any(
        partner(v) is None for v in odd_right
    ):
        raise MatchingError(
            "an unmatched vertex is alternating-reachable from the other "
            "side's unmatched set: the matching is not maximum"
        )
    overlap = reach_from_left & reach_from_right
    if overlap:
        raise MatchingError(
            "alternating reaches from the two sides overlap "
            f"(e.g. at {next(iter(overlap))!r}): the matching is not maximum"
        )

    core_left = frozenset(left_set - even_left - odd_right)
    core_right = frozenset(right_set - even_right - odd_left)
    return Decomposition(
        even_left=even_left,
        odd_left=odd_left,
        even_right=even_right,
        odd_right=odd_right,
        core_left=core_left,
        core_right=core_right,
    )


def decompose_bipartite(
    graph: BipartiteGraph, match: Dict
) -> Decomposition:
    """Decompose an explicit :class:`BipartiteGraph` with matching dict."""
    graph.validate_matching(match)
    return decompose(
        graph.left,
        graph.right,
        graph.neighbors,
        lambda v: match.get(v),
    )


# ----------------------------------------------------------------------
# An IncrementalMatching's current split
# ----------------------------------------------------------------------
def crossing_graph(matcher) -> BipartiteGraph:
    """The matcher's crossing graph ``B`` as an explicit
    :class:`BipartiteGraph`, O(V + E)."""
    b = BipartiteGraph(matcher.left_vertices(), matcher.right_vertices())
    for u in matcher.left_vertices():
        for v in matcher.crossing_neighbors(u):
            b.add_edge(u, v)
    return b


def check_matching(matcher) -> None:
    """Raise :class:`MatchingError` unless the matcher's pairs form a
    symmetric matching of crossing edges whose size it reports.
    (Maximality is checked against :func:`hopcroft_karp`.)"""
    match = matcher.matching_dict()
    crossing_graph(matcher).validate_matching(match)
    if len(match) != 2 * matcher.matching_size:
        raise MatchingError(
            f"matching size {matcher.matching_size} disagrees with "
            f"{len(match)} matched endpoints"
        )
