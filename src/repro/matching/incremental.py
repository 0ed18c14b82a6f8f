"""Incremental maximum matching under the IG-Match sweep.

The IG-Match main loop (Figure 5 of the paper) moves nets one at a time
from L to R in sorted-eigenvector order.  The induced bipartite graph
``B = (L, R, E_B)`` — the intersection-graph edges crossing the split —
therefore changes only locally per move, and the maximum matching can be
*maintained* rather than recomputed:

1. If the moving net ``v`` was matched to some ``u`` (in R), unmatch the
   pair and try one augmenting-path search from ``u`` (it may be
   re-matchable through other L vertices).
2. Move ``v`` to R; its crossing edges flip from (v∈L → R neighbours) to
   (L neighbours → v∈R).
3. Try one augmenting-path search from ``v``.

Each step changes the maximum matching size by at most one in each
direction, so one search suffices and the matching stays maximum — this is
the amortisation behind the paper's O(|V|·(|V|+|E|)) bound (Theorem 6).

``E_B`` is kept *implicit*: a crossing edge is an intersection-graph edge
whose endpoints are currently on different sides.  This avoids rebuilding
edge sets and keeps every search O(|V| + |E_G'|).

König classification is maintained the same way.  For each side ``s``
the classes need the set of vertices that ``s``'s unmatched vertices
reach by alternating paths.  Those reach marks persist across splits,
each with a rank: a marked vertex that is not a source has a marked
in-neighbour of strictly smaller rank.  A move changes the alternating
arcs only at the vertices whose side or mate it changed (the moved
vertex, its old partner, and every vertex of each augmenting path), so
:meth:`IncrementalMatching.classify` deletes the marks that lost their
support there and re-derives from the same vertices, at a cost set by
what the moves changed rather than O(V + E) per split.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import MatchingError
from ..graph import Graph

__all__ = ["IncrementalMatching", "VertexClass"]

_LEFT = 0
_RIGHT = 1


class VertexClass:
    """Integer codes for the König classes of :meth:`IncrementalMatching.classify`.

    Names follow the paper's Figure 3: ``EVEN_L``/``EVEN_R`` are winner
    nets, ``ODD_L`` (R-side) / ``ODD_R`` (L-side) are the critical-set
    losers, and ``CORE_L``/``CORE_R`` form the perfectly-matched subgraph
    ``B'`` that Phase II assigns wholesale.
    """

    EVEN_L = 0
    ODD_L = 1  # on the R side, reached from U_L at odd distance
    EVEN_R = 2
    ODD_R = 3  # on the L side, reached from U_R at odd distance
    CORE_L = 4
    CORE_R = 5


class IncrementalMatching:
    """Maximum matching of the crossing bipartite graph, maintained as
    vertices sweep from L to R.

    Parameters
    ----------
    graph:
        The fixed host graph (for IG-Match, the intersection graph).  All
        vertices start on the L side; call :meth:`move_to_right` in sweep
        order.
    """

    def __init__(self, graph: Graph):
        self._graph = graph
        n = graph.num_vertices
        self._side = [_LEFT] * n
        self._match: List[int] = [-1] * n
        self._left_count = n
        self._matching_size = 0
        # Flat adjacency cache: augmenting searches and classification
        # scan neighbour lists in their inner loops, where the Graph
        # method-call overhead would dominate the sweep.
        self._adjacency = [list(graph.neighbors(v)) for v in range(n)]
        # Classification state, brought up to date by classify(): the
        # code array and, per side, the reach marks with their ranks and
        # supports (see classify()).  Every vertex starts as an
        # unmatched L vertex, a source of L's reach, so L reaches
        # everything at rank 0 and R nothing.
        self._codes = [VertexClass.EVEN_L] * n
        self._marks = ([True] * n, [False] * n)
        self._ranks = ([0] * n, [0] * n)
        self._supports = ([-1] * n, [-1] * n)
        # (side, mate) as of the last classify(), recorded for each
        # vertex the first time a move changes it after that call.
        self._before: Dict[int, Tuple[int, int]] = {}
        #: Vertices whose class changed at the last :meth:`classify`.
        self.reclassified: List[int] = []
        #: Plain-int telemetry, always maintained (a few integer adds
        #: per sweep move): successful augmenting paths applied,
        #: searches attempted, vertices visited by augmenting searches
        #: (the work term behind Theorem 6's amortisation), and
        #: vertices plus adjacency entries scanned by classification.
        self.augmentations = 0
        self.augmentation_attempts = 0
        self.search_visits = 0
        self.classify_visits = 0

    # ------------------------------------------------------------------
    # State accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    @property
    def left_count(self) -> int:
        return self._left_count

    @property
    def right_count(self) -> int:
        return self.num_vertices - self._left_count

    @property
    def matching_size(self) -> int:
        """Size of the (maximum) matching of the current crossing graph."""
        return self._matching_size

    def side_of(self, v: int) -> str:
        """``"L"`` or ``"R"`` for vertex ``v``."""
        return "L" if self._side[v] == _LEFT else "R"

    def partner(self, v: int) -> Optional[int]:
        """The vertex matched with ``v``, or ``None``."""
        p = self._match[v]
        return None if p == -1 else p

    def matching_dict(self) -> Dict[int, int]:
        """The current matching as a symmetric dict."""
        return {
            v: p for v, p in enumerate(self._match) if p != -1
        }

    def left_vertices(self) -> Iterator[int]:
        return (v for v in range(self.num_vertices) if self._side[v] == _LEFT)

    def right_vertices(self) -> Iterator[int]:
        return (
            v for v in range(self.num_vertices) if self._side[v] == _RIGHT
        )

    def crossing_neighbors(self, v: int) -> Iterator[int]:
        """Neighbours of ``v`` on the opposite side (the ``E_B`` edges)."""
        my_side = self._side[v]
        return (
            u for u in self._graph.neighbors(v) if self._side[u] != my_side
        )

    def crossing_edge_count(self) -> int:
        """``|E_B|``, counted directly (O(E))."""
        return sum(
            1
            for u, v, _ in self._graph.edges()
            if self._side[u] != self._side[v]
        )

    def _check_vertex(self, v: int) -> None:
        # A negative id would index from the end of the state lists and
        # silently act on another vertex.
        if not 0 <= v < len(self._side):
            raise MatchingError(
                f"vertex {v} out of range 0..{len(self._side) - 1}"
            )

    # ------------------------------------------------------------------
    # The sweep primitive
    # ------------------------------------------------------------------
    def move_to_right(self, v: int) -> None:
        """Move vertex ``v`` from L to R, restoring matching maximality.

        This is one iteration of the paper's Figure 5 pseudocode, minus
        the winner-set construction (see :meth:`classify`).
        """
        self._check_vertex(v)
        if self._side[v] != _LEFT:
            raise MatchingError(f"vertex {v} is not on the L side")

        # Step 1: detach v from the matching; its old partner u (in R)
        # may be re-matchable along an augmenting path into L.
        before = self._before
        u = self._match[v]
        if v not in before:
            before[v] = (_LEFT, u)
        if u != -1:
            if u not in before:
                before[u] = (_RIGHT, v)
            self._match[v] = -1
            self._match[u] = -1
            self._matching_size -= 1

        # Step 2: flip sides.  Crossing edges update implicitly, but the
        # matching must stay consistent: any pair matched across the old
        # split is still crossing after the flip *unless* it involved v,
        # which we already unmatched.
        self._side[v] = _RIGHT
        self._left_count -= 1

        if u != -1:
            if self._augment_from(u):
                self._matching_size += 1

        # Step 3: v (now in R) may extend the matching.
        if self._augment_from(v):
            self._matching_size += 1

    # ------------------------------------------------------------------
    # Warm starts (ECO / delta serving)
    # ------------------------------------------------------------------
    def jump_start(self, right_vertices, seed=None) -> int:
        """Jump a fresh matcher straight to a mid-sweep split.

        Flips every vertex in ``right_vertices`` to R in one pass, seeds
        the matching from ``seed`` — ``(u, v)`` pairs from a previous
        sweep's matching, silently skipping any pair the new graph or
        split no longer supports — then restores maximality with
        :meth:`repair_to_maximum`.  With a good seed the repair does
        O(changed) work instead of replaying the whole sweep prefix.

        Returns the number of seed pairs actually installed.  Must be
        called before any :meth:`move_to_right`; König classification
        afterwards is exactly what the replayed sweep would produce,
        because the classes depend only on *which* matching is maximum,
        not how it was found (Dulmage–Mendelsohn canonicity).
        """
        if self._left_count != self.num_vertices or self._matching_size:
            raise MatchingError(
                "jump_start requires a fresh matcher (all vertices on L, "
                "empty matching)"
            )
        right_vertices = list(right_vertices)
        for v in right_vertices:
            self._check_vertex(v)
        before = self._before
        for v in right_vertices:
            if self._side[v] != _LEFT:
                raise MatchingError(
                    f"jump_start vertex {v} listed twice"
                )
            before.setdefault(v, (_LEFT, -1))
            self._side[v] = _RIGHT
            self._left_count -= 1
        installed = 0
        if seed:
            match = self._match
            side = self._side
            n = self.num_vertices
            for u, v in seed:
                if not (0 <= u < n and 0 <= v < n):
                    continue
                if side[u] == side[v]:
                    continue
                if match[u] != -1 or match[v] != -1:
                    continue
                if not self._graph.has_edge(u, v):
                    continue
                before.setdefault(u, (side[u], -1))
                before.setdefault(v, (side[v], -1))
                match[u] = v
                match[v] = u
                installed += 1
        self._matching_size += installed
        self.repair_to_maximum()
        return installed

    def repair_to_maximum(self) -> int:
        """Grow the current (valid) matching to maximum.

        One augmenting search from every unmatched vertex suffices: a
        failed search from ``x`` stays failed after augmentations along
        paths from other vertices (the classical Hungarian-algorithm
        lemma), and successful augmentations never unmatch a vertex.
        Returns the number of augmenting paths applied.
        """
        grown = 0
        for v in range(self.num_vertices):
            if self._match[v] == -1 and self._augment_from(v):
                self._matching_size += 1
                grown += 1
        return grown

    # ------------------------------------------------------------------
    # Augmenting search
    # ------------------------------------------------------------------
    def _augment_from(self, start: int) -> bool:
        """BFS one augmenting path from unmatched ``start``; apply it.

        Works from either side.  Returns True when the matching grew.
        """
        if self._match[start] != -1:
            return False
        self.augmentation_attempts += 1
        match = self._match
        side = self._side
        adjacency = self._adjacency

        parent: Dict[int, int] = {start: -1}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            x_side = side[x]
            for y in adjacency[x]:
                if side[y] == x_side or y in parent or match[x] == y:
                    continue
                parent[y] = x
                if match[y] == -1:
                    # Reconstruct the path start .. x, y and flip its
                    # edges pairwise from the newly-matched end.
                    path = [y]
                    node = x
                    while node != -1:
                        path.append(node)
                        node = parent[node]
                    # Every vertex on the path changes mate.
                    before = self._before
                    for node in path:
                        if node not in before:
                            before[node] = (side[node], match[node])
                    for i in range(0, len(path) - 1, 2):
                        a, b = path[i], path[i + 1]
                        match[a] = b
                        match[b] = a
                    self.augmentations += 1
                    self.search_visits += len(parent)
                    return True
                partner = match[y]
                if partner not in parent:
                    parent[partner] = y
                    queue.append(partner)
        self.search_visits += len(parent)
        return False

    # ------------------------------------------------------------------
    # König classification (Phase I winner selection)
    # ------------------------------------------------------------------
    def classify(self) -> List[int]:
        """König classes of every vertex for the current split.

        Returns a list of :class:`VertexClass` codes and records in
        :attr:`reclassified` the vertices whose class changed since the
        previous call, in no particular order.  The matching must be
        maximum, which :meth:`move_to_right` maintains; then no
        alternating path joins two unmatched vertices, so the reaches
        from the two sides are disjoint and the six classes partition
        the vertices.

        For each side ``s`` the reach is taken in the alternating graph
        whose arcs run from every ``s`` vertex to each neighbour across
        the split except its mate, and from every matched vertex on the
        other side to its mate.  The sources are ``s``'s unmatched
        vertices, so they come out Even.  The marks persist between
        calls, each with a rank, under one invariant: every marked
        vertex that is not a source has a marked in-neighbour of
        strictly smaller rank, its *support*.  On side ``s`` that is
        the mate; across the split it is the neighbour recorded when the
        mark was made or last confirmed.  Arcs change only at the
        *changed* vertices, those whose (side, mate) differs from the
        last call, and each call brings both sides' marks up to date
        from them:

        1. The candidates are the marked changed vertices and the marks
           they supported through their arcs as they were at the last
           call.
        2. Candidates pop in increasing rank.  One stays marked if it is
           a source, if its support is still a marked in-neighbour of
           smaller rank, or if a scan of its in-neighbours finds one,
           which becomes its support.  Otherwise it is unmarked, and the
           marks it supported become candidates, all of larger rank.
           Marks only shrink and ranks stay fixed here, so everything of
           smaller rank than a popped vertex is final, and each vertex
           pops once.
        3. Each changed or just-unmarked vertex that is a source, or has
           a marked in-neighbour, is marked again at rank 0 or that
           neighbour's rank + 1, and marks propagate over the current
           arcs, from these vertices and from every marked changed
           vertex, at rank + 1 per step.
        4. Codes are recomputed for the changed vertices and those whose
           mark moved.

        Step 3 restores closure, because every arc from a marked to an
        unmarked vertex either ends at a changed or just-unmarked
        vertex or starts at a changed one.  The marks are therefore the
        unique alternating-reachability fixed point, whatever order
        reached them, and a call scans each vertex and neighbour list a
        bounded number of times (:attr:`classify_visits`).
        """
        side = self._side
        match = self._match
        before = self._before
        changed = [
            x for x, was in before.items() if was != (side[x], match[x])
        ]
        touched = set(changed)
        visits = len(before)
        for s in (_LEFT, _RIGHT):
            visits += self._update_reach(s, changed, touched)
        before.clear()

        codes = self._codes
        marks_l, marks_r = self._marks
        reclassified: List[int] = []
        for x in touched:
            if side[x] == _LEFT:
                if marks_l[x]:
                    code = VertexClass.EVEN_L
                elif marks_r[x]:
                    code = VertexClass.ODD_R
                else:
                    code = VertexClass.CORE_L
            elif marks_r[x]:
                code = VertexClass.EVEN_R
            elif marks_l[x]:
                code = VertexClass.ODD_L
            else:
                code = VertexClass.CORE_R
            if codes[x] != code:
                codes[x] = code
                reclassified.append(x)
        self.classify_visits += visits
        self.reclassified = reclassified
        return list(codes)

    def _update_reach(
        self, s: int, changed: List[int], touched: Set[int]
    ) -> int:
        """Steps 1-3 of :meth:`classify` for side ``s``'s marks; adds
        every vertex whose mark moved to ``touched`` and returns the
        vertices and adjacency entries scanned."""
        mark = self._marks[s]
        rank = self._ranks[s]
        support = self._supports[s]
        side = self._side
        match = self._match
        adjacency = self._adjacency
        before = self._before
        visits = len(changed)

        # Step 1.  ``pending`` collects the unmarked vertices step 3
        # tries to mark: changed ones here, just-unmarked ones in step 2.
        candidates = []
        pending = []
        for x in changed:
            if mark[x]:
                candidates.append(x)
            else:
                pending.append(x)
            old_side, old_mate = before[x]
            if old_side == s:
                neighbours = adjacency[x]
                visits += len(neighbours)
                candidates += [
                    y for y in neighbours
                    if support[y] == x and mark[y] and side[y] != s
                ]
            elif old_mate != -1 and mark[old_mate]:
                candidates.append(old_mate)
        queued = set(candidates)
        heap = [(rank[y], y) for y in queued]
        heapify(heap)

        # Step 2.  A vertex supports only marks of larger rank, so pops
        # run in increasing rank.
        while heap:
            r, x = heappop(heap)
            visits += 1
            mate = match[x]
            if side[x] == s:
                if mate == -1 or (mark[mate] and rank[mate] < r):
                    continue
            else:
                p = support[x]
                if (
                    p != -1
                    and mark[p]
                    and rank[p] < r
                    and side[p] == s
                    and p != mate
                ):
                    continue
                neighbours = adjacency[x]
                for y in neighbours:
                    if mark[y] and rank[y] < r and side[y] == s and y != mate:
                        visits += neighbours.index(y) + 1
                        support[x] = y
                        break
                else:
                    y = -1
                    visits += len(neighbours)
                if y != -1:
                    continue
            mark[x] = False
            pending.append(x)
            if side[x] == s:
                neighbours = adjacency[x]
                visits += len(neighbours)
                for y in neighbours:
                    if (
                        support[y] == x
                        and mark[y]
                        and side[y] != s
                        and y not in queued
                    ):
                        queued.add(y)
                        heappush(heap, (rank[y], y))
            elif mate != -1 and mark[mate] and mate not in queued:
                queued.add(mate)
                heappush(heap, (rank[mate], mate))

        # Step 3.
        stack = [x for x in changed if mark[x]]
        for w in pending:
            mate = match[w]
            if side[w] == s:
                if mate == -1:
                    r = 0
                elif mark[mate]:
                    r = rank[mate] + 1
                else:
                    continue
            else:
                neighbours = adjacency[w]
                for y in neighbours:
                    if mark[y] and side[y] == s and y != mate:
                        break
                else:
                    visits += len(neighbours)
                    continue
                visits += neighbours.index(y) + 1
                r = rank[y] + 1
                support[w] = y
            mark[w] = True
            rank[w] = r
            stack.append(w)
        touched.update(pending)
        while stack:
            u = stack.pop()
            visits += 1
            r = rank[u] + 1
            mate = match[u]
            if side[u] == s:
                neighbours = adjacency[u]
                visits += len(neighbours)
                for w in neighbours:
                    if not mark[w] and side[w] != s and w != mate:
                        mark[w] = True
                        rank[w] = r
                        support[w] = u
                        stack.append(w)
                        touched.add(w)
            elif mate != -1 and not mark[mate]:
                mark[mate] = True
                rank[mate] = r
                stack.append(mate)
                touched.add(mate)
        return visits
