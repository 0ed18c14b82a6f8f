"""Property-based verification of the paper's theorems.

* Theorem 1 (Hagen–Kahng): lambda_2 / n lower-bounds the optimal graph
  ratio cut — verified against exhaustive enumeration on small graphs
  and random partitions on larger ones.
* Theorems 2–3 (König): |MVC| = |MM|, on the from-scratch
  decomposition in tests/test_koenig.py and, at every split, on the
  classes the sweep maintains.
* Theorem 4: IG-Match's losers form a vertex cover of the crossing
  bipartite graph.
* Theorem 5: the completed partition cuts at most |maximum matching|
  nets, at every split of cold, strided and warm-window sweeps.
* Theorem 6: a full sweep's matching and classification work, counted
  by the matcher, stays within c·|V|·(|V|+|E|).
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.intersection import intersection_graph
from repro.matching import IncrementalMatching
from repro.matching.incremental import VertexClass
from repro.partitioning import IGMatchConfig, ig_match_sweep
from repro.partitioning.igmatch import SweepWarmStart
from repro.partitioning.metrics import graph_edge_cut
from repro.spectral import fiedler_vector
from tests.conftest import (
    connected_random_graph,
    graph_of,
    hypergraph_strategy,
    random_hypergraph,
)
from tests.strategies import adversarial_csr_hypergraphs


class TestTheorem1:
    @pytest.mark.parametrize("seed", range(6))
    def test_bound_vs_exhaustive_optimum(self, seed):
        g = connected_random_graph(seed, num_vertices=8, extra_edges=5)
        bound = fiedler_vector(g).eigenvalue / g.num_vertices
        best = float("inf")
        for mask in range(1, 2**8 - 1):
            sides = [(mask >> v) & 1 for v in range(8)]
            u = sides.count(0)
            w = 8 - u
            cost = graph_edge_cut(g, sides) / (u * w)
            best = min(best, cost)
        assert best >= bound - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_vs_random_partitions(self, seed):
        import random

        g = connected_random_graph(seed + 30, num_vertices=25)
        bound = fiedler_vector(g).eigenvalue / 25
        rng = random.Random(seed)
        for _ in range(40):
            sides = [rng.randint(0, 1) for _ in range(25)]
            u = sides.count(0)
            if u in (0, 25):
                continue
            cost = graph_edge_cut(g, sides) / (u * (25 - u))
            assert cost >= bound - 1e-9

    def test_bound_tight_on_complete_graph(self):
        # K_n: lambda_2 = n; every partition has ratio cut exactly
        # u*w/(u*w) = 1 = lambda_2/n.
        n = 6
        g = graph_of(n, itertools.combinations(range(n), 2))
        bound = fiedler_vector(g).eigenvalue / n
        sides = [0, 0, 0, 1, 1, 1]
        cost = graph_edge_cut(g, sides) / 9
        assert cost == pytest.approx(bound, abs=1e-8)


class TestTheorems4And5:
    @settings(max_examples=40, deadline=None)
    @given(hypergraph_strategy(min_modules=4, max_modules=10,
                               min_nets=3, max_nets=10))
    def test_loser_bound_all_splits(self, h):
        # A strided sweep classifies once per three moves.
        for stride in (1, 3):
            evaluations, _ = ig_match_sweep(
                h, IGMatchConfig(split_stride=stride)
            )
            for e in evaluations:
                assert e.nets_cut <= e.matching_size

    @settings(max_examples=40, deadline=None)
    @given(
        h=hypergraph_strategy(min_modules=4, max_modules=10,
                              min_nets=3, max_nets=10),
        data=st.data(),
    )
    def test_loser_bound_warm_window(self, h, data):
        """A window around a cold run's best split, the matcher jumped
        to the window's first split."""
        evaluations, partition = ig_match_sweep(h, IGMatchConfig())
        assume(partition is not None)
        best = min(evaluations, key=lambda e: (e.ratio_cut, e.rank)).rank
        lo = data.draw(st.integers(1, best))
        hi = data.draw(st.integers(best, h.num_nets - 1))
        warm = SweepWarmStart(lo=lo, hi=hi)
        evaluations, _ = ig_match_sweep(h, IGMatchConfig(), warm=warm)
        assert best in [e.rank for e in evaluations]
        for e in evaluations:
            assert lo <= e.rank <= hi
            assert e.nets_cut <= e.matching_size

    @pytest.mark.parametrize("seed", range(6))
    def test_losers_form_vertex_cover(self, seed):
        """Theorem 4, checked directly on the crossing graph, and
        Theorems 2–3: the losers number exactly |MM|, so at every split
        they are a minimum cover and the matching is maximum."""
        from repro.intersection import intersection_graph
        from repro.spectral import spectral_ordering

        h = random_hypergraph(seed, num_modules=12, num_nets=14)
        graph = intersection_graph(h, "paper")
        order = spectral_ordering(graph, seed=0)
        matcher = IncrementalMatching(graph)
        for net in order[:-1]:
            matcher.move_to_right(net)
            codes = matcher.classify()
            # Phase II makes either core_L or core_R losers; check both.
            for core_loser in (VertexClass.CORE_L, VertexClass.CORE_R):
                losers = {
                    v
                    for v, c in enumerate(codes)
                    if c in (VertexClass.ODD_L, VertexClass.ODD_R,
                             core_loser)
                }
                assert len(losers) == matcher.matching_size
                for u, v, _ in graph.edges():
                    if matcher.side_of(u) != matcher.side_of(v):
                        assert u in losers or v in losers


def sweep_counters(h, order=None):
    """Run one cold full sweep with obs on; return (graph, evaluations,
    counters)."""
    graph = intersection_graph(h, "paper")
    with obs.isolated() as state:
        obs.enable()
        try:
            evaluations, _ = ig_match_sweep(
                h, IGMatchConfig(), order=order, graph=graph
            )
        finally:
            obs.disable()
        return graph, evaluations, dict(state.counters)


class TestTheorem6:
    """The sweep's work, as counted by ``matching.search_visits`` and
    ``matching.classify_visits``, against the paper's O(|V|·(|V|+|E|)).

    Derivation of ``c`` for a cold full sweep (|V| - 1 moves, at most
    |V| - 1 classify calls), with D = 2|E| the total adjacency length:

    * an augmenting search visits at most |V| vertices and a move
      tries at most two searches, so ``search_visits`` <= 2|V|^2;
    * a classify call counts each recorded vertex once (<= |V|) and,
      per side, each changed vertex once (<= |V|), each vertex it pops
      in step 2 once (a vertex is queued at most once, <= |V|) and each
      vertex it pops in step 3's propagation once (a vertex is marked
      at most once, <= |V|), so at most 7|V| vertex visits;
    * it scans each changed vertex's neighbour list once in step 1,
      on its old side only (<= D over both sides), and per side each
      neighbour list at most once in step 2 (the support scan of a
      vertex across the split, or the dependents of an unmarked one on
      the side) and once in step 3 (the pull scan of a vertex across,
      or the propagation from one on the side), so at most 5D
      adjacency entries;
    * so a call costs at most 7|V| + 10|E| <= 10(|V| + |E|), at most
      10|V|(|V| + |E|) over the sweep.

    In total at most 2|V|^2 + 10|V|(|V| + |E|) <= 12|V|(|V| + |E|).
    """

    C = 12

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.one_of(
            hypergraph_strategy(max_modules=14, max_nets=18),
            adversarial_csr_hypergraphs(),
        ),
        data=st.data(),
    )
    def test_sweep_work_within_bound(self, h, data):
        assume(h.num_nets >= 2 and h.num_modules >= 2)
        order = data.draw(st.permutations(range(h.num_nets)))
        graph, _, counters = sweep_counters(h, order)
        v, e = graph.num_vertices, graph.num_edges
        # Every classify call after a move scans at least the moved
        # vertex, so a classifier that stops counting fails here.
        classify_visits = counters["matching.classify_visits"]
        assert classify_visits > 0
        work = counters["matching.search_visits"] + classify_visits
        assert work <= self.C * v * (v + e)

    def test_classification_well_below_from_scratch(self, medium_circuit):
        """Classifying from scratch scans |V| + 2|E| per split.  On this
        circuit, re-running the alternating search over the matched
        region at every split scanned 0.156 of that; keeping the reach
        marks across splits scans 0.047."""
        graph, evaluations, counters = sweep_counters(medium_circuit)
        from_scratch = len(evaluations) * (
            graph.num_vertices + 2 * graph.num_edges
        )
        assert counters["matching.classify_visits"] < 0.1 * from_scratch


class TestDeterminism:
    """Stability (Section 5): one deterministic execution, no restarts."""

    def test_igmatch_seed_independent_of_instance_order(self):
        h = random_hypergraph(3, num_modules=14, num_nets=16)
        runs = [
            ig_match_sweep(h, IGMatchConfig(seed=0))[1].sides
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]
