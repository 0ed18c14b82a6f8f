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

König classification is maintained the same way.  An unmatched vertex
is Even on its own side by definition, so only the matched region needs
an alternating search, seeded from the matched vertices that have an
unmatched neighbour across the split.  Those neighbour counts change
only around the few vertices whose side or matched status a move
touched: the moved vertex, its old partner, and the ends of each
augmenting path.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set

from ..errors import MatchingError
from ..graph import Graph
from .bipartite import BipartiteGraph

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
        # code array, the matched vertices, and each vertex's count of
        # unmatched neighbours across the split.  The counts reflect
        # every vertex's (side, unmatched) pair as last settled
        # (``_settled_*``); ``_dirty`` lists the vertices whose pair may
        # have changed since.
        self._codes = [VertexClass.EVEN_L] * n
        self._matched: Set[int] = set()
        self._free_across = [0] * n
        self._settled_side = [_LEFT] * n
        self._settled_free = [True] * n
        self._dirty: List[int] = []
        # Epoch-stamped reach marks let classify() run without
        # reallocating per split.
        self._reach_l = [0] * n
        self._reach_r = [0] * n
        self._epoch = 0
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

    # ------------------------------------------------------------------
    # The sweep primitive
    # ------------------------------------------------------------------
    def move_to_right(self, v: int) -> None:
        """Move vertex ``v`` from L to R, restoring matching maximality.

        This is one iteration of the paper's Figure 5 pseudocode, minus
        the winner-set construction (see :meth:`snapshot` /
        :func:`repro.matching.koenig.decompose`).
        """
        if self._side[v] != _LEFT:
            raise MatchingError(f"vertex {v} is not on the L side")

        # Step 1: detach v from the matching; its old partner u (in R)
        # may be re-matchable along an augmenting path into L.
        u = self._match[v]
        if u != -1:
            self._match[v] = -1
            self._match[u] = -1
            self._matching_size -= 1

        # Step 2: flip sides.  Crossing edges update implicitly, but the
        # matching must stay consistent: any pair matched across the old
        # split is still crossing after the flip *unless* it involved v,
        # which we already unmatched.
        self._side[v] = _RIGHT
        self._left_count -= 1
        self._dirty.append(v)

        if u != -1:
            self._dirty.append(u)
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
        for v in right_vertices:
            if self._side[v] != _LEFT:
                raise MatchingError(
                    f"jump_start vertex {v} listed twice"
                )
            self._side[v] = _RIGHT
            self._left_count -= 1
            self._dirty.append(v)
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
                match[u] = v
                match[v] = u
                self._dirty.extend((u, v))
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
                    for i in range(0, len(path) - 1, 2):
                        a, b = path[i], path[i + 1]
                        match[a] = b
                        match[b] = a
                    self._dirty.extend((start, y))
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
        previous call.  The matching must be maximum, which
        :meth:`move_to_right` maintains; then no alternating path joins
        two unmatched vertices, so the reaches from the two sides are
        disjoint and the six classes partition the vertices.

        Unmatched vertices are Even on their own side.  The alternating
        search runs over the matched vertices only, seeded from those
        with an unmatched neighbour across the split, so a call costs
        the matched region and the edges it reaches, plus the neighbour
        lists of the vertices moves touched since the previous call —
        not O(V + E), except for the first call after :meth:`jump_start`,
        which settles every flipped vertex.  The marked set is a fixed
        point of alternating reachability, so visit order does not
        change the codes.
        """
        codes = self._codes
        reclassified: List[int] = []
        visits = self._settle(reclassified)
        side = self._side
        match = self._match
        free_across = self._free_across
        reach_l = self._reach_l
        reach_r = self._reach_r
        self._epoch += 1
        epoch = self._epoch
        # A matched vertex with an unmatched neighbour across is Odd,
        # reached from that neighbour's side; its partner is Even.
        stack_l: List[int] = []
        stack_r: List[int] = []
        for x in self._matched:
            if free_across[x]:
                mate = match[x]
                if side[x] == _RIGHT:
                    reach_l[x] = reach_l[mate] = epoch
                    stack_l.append(mate)
                else:
                    reach_r[x] = reach_r[mate] = epoch
                    stack_r.append(mate)
        visits += 2 * len(self._matched)
        visits += self._alternate(stack_l, reach_l, epoch)
        visits += self._alternate(stack_r, reach_r, epoch)
        for x in self._matched:
            if side[x] == _LEFT:
                if reach_l[x] == epoch:
                    code = VertexClass.EVEN_L
                elif reach_r[x] == epoch:
                    code = VertexClass.ODD_R
                else:
                    code = VertexClass.CORE_L
            elif reach_r[x] == epoch:
                code = VertexClass.EVEN_R
            elif reach_l[x] == epoch:
                code = VertexClass.ODD_L
            else:
                code = VertexClass.CORE_R
            if codes[x] != code:
                codes[x] = code
                reclassified.append(x)
        self.classify_visits += visits
        self.reclassified = reclassified
        return list(codes)

    def _settle(self, reclassified: List[int]) -> int:
        """Bring the unmatched-neighbour counts, the matched set and the
        codes of unmatched vertices up to date for every dirty vertex.

        Each dirty vertex moves from its settled (side, unmatched) pair
        to its current one against its neighbours' settled pairs, so the
        counts stay exact after every single step, in any order.
        Returns the vertices and adjacency entries scanned.
        """
        dirty = self._dirty
        side = self._side
        match = self._match
        adjacency = self._adjacency
        free_across = self._free_across
        settled_side = self._settled_side
        settled_free = self._settled_free
        codes = self._codes
        visits = len(dirty)
        for x in dirty:
            new_side = side[x]
            new_free = match[x] == -1
            old_side = settled_side[x]
            old_free = settled_free[x]
            if new_side == old_side and new_free == old_free:
                continue
            neighbours = adjacency[x]
            visits += len(neighbours)
            # Each neighbour's count loses x as it was and gains x as it
            # is; x's own count is recounted against its new side.
            own = 0
            for y in neighbours:
                y_side = settled_side[y]
                was = old_free and y_side != old_side
                now = new_free and y_side != new_side
                if was != now:
                    free_across[y] += 1 if now else -1
                if y_side != new_side and settled_free[y]:
                    own += 1
            free_across[x] = own
            settled_side[x] = new_side
            settled_free[x] = new_free
            if new_free:
                self._matched.discard(x)
                code = (
                    VertexClass.EVEN_L if new_side == _LEFT
                    else VertexClass.EVEN_R
                )
                if codes[x] != code:
                    codes[x] = code
                    reclassified.append(x)
            else:
                self._matched.add(x)
        dirty.clear()
        return visits

    def _alternate(self, stack: List[int], reach: List[int], epoch: int) -> int:
        """Mark in ``reach`` everything alternating-reachable from the
        (marked) matched vertices on ``stack``; return the adjacency
        entries scanned."""
        side = self._side
        match = self._match
        adjacency = self._adjacency
        visits = 0
        while stack:
            u = stack.pop()
            u_side = side[u]
            neighbours = adjacency[u]
            visits += len(neighbours)
            for w in neighbours:
                if side[w] == u_side or reach[w] == epoch:
                    continue
                # (u, w) is a crossing non-matching edge; w is matched,
                # else the matching would not be maximum.
                reach[w] = epoch
                mate = match[w]
                if mate != -1 and reach[mate] != epoch:
                    reach[mate] = epoch
                    stack.append(mate)
        return visits

    # ------------------------------------------------------------------
    # Snapshots and invariants
    # ------------------------------------------------------------------
    def snapshot(self) -> BipartiteGraph:
        """An explicit :class:`BipartiteGraph` copy of the crossing graph.

        O(V + E); intended for tests and the König decomposition.
        """
        b = BipartiteGraph(self.left_vertices(), self.right_vertices())
        for u, v, _ in self._graph.edges():
            if self._side[u] != self._side[v]:
                if self._side[u] == _LEFT:
                    b.add_edge(u, v)
                else:
                    b.add_edge(v, u)
        return b

    def matching_dict(self) -> Dict[int, int]:
        """The current matching as a symmetric dict."""
        return {
            v: p for v, p in enumerate(self._match) if p != -1
        }

    def check_invariants(self) -> None:
        """Raise :class:`MatchingError` on any internal inconsistency.

        Verifies symmetry, that matched pairs are crossing edges, and
        that the recorded size agrees.  (Maximality is verified in the
        test suite against Hopcroft–Karp.)
        """
        count = 0
        for v, p in enumerate(self._match):
            if p == -1:
                continue
            if self._match[p] != v:
                raise MatchingError(f"matching asymmetric at {v}<->{p}")
            if self._side[v] == self._side[p]:
                raise MatchingError(
                    f"matched pair ({v},{p}) on the same side"
                )
            if not self._graph.has_edge(v, p):
                raise MatchingError(f"matched pair ({v},{p}) not an edge")
            count += 1
        if count != 2 * self._matching_size:
            raise MatchingError(
                f"matching size {self._matching_size} disagrees with "
                f"{count} matched endpoints"
            )
