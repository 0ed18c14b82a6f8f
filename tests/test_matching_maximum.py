"""Tests for maximum bipartite matching, cross-validated against
networkx and brute force."""

import itertools

import pytest
from hypothesis import given, settings

from tests.bipartite import (
    BipartiteGraph,
    augmenting_path_matching,
    hopcroft_karp,
    matching_size,
)
from tests.strategies import bipartite_graphs


def build(nl, nr, edges):
    b = BipartiteGraph([("L", i) for i in range(nl)],
                       [("R", j) for j in range(nr)])
    for l, r in edges:
        b.add_edge(("L", l), ("R", r))
    return b


def brute_force_maximum(nl, nr, edges):
    """Maximum matching size by exhaustive search (tiny instances)."""
    best = 0
    for k in range(min(nl, nr, len(edges)), 0, -1):
        for combo in itertools.combinations(edges, k):
            lefts = {e[0] for e in combo}
            rights = {e[1] for e in combo}
            if len(lefts) == k and len(rights) == k:
                return k
    return best


class TestKnownInstances:
    def test_perfect_matching(self):
        b = build(3, 3, [(0, 0), (1, 1), (2, 2)])
        assert matching_size(augmenting_path_matching(b)) == 3

    def test_star_matches_one(self):
        b = build(1, 4, [(0, j) for j in range(4)])
        assert matching_size(augmenting_path_matching(b)) == 1

    def test_requires_augmentation(self):
        # Greedy can match (0,0) first; augmenting path must fix it.
        b = build(2, 2, [(0, 0), (0, 1), (1, 0)])
        assert matching_size(augmenting_path_matching(b)) == 2

    def test_empty_graph(self):
        b = build(2, 2, [])
        assert augmenting_path_matching(b) == {}

    def test_matching_is_valid(self):
        b = build(4, 4, [(i, j) for i in range(4) for j in range(4)
                         if (i + j) % 2 == 0])
        match = augmenting_path_matching(b)
        b.validate_matching(match)


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(10))
    def test_augmenting_equals_hopcroft_karp(self, seed):
        import random

        rng = random.Random(seed)
        nl, nr = rng.randint(3, 12), rng.randint(3, 12)
        edges = [
            (l, r)
            for l in range(nl)
            for r in range(nr)
            if rng.random() < 0.3
        ]
        b = build(nl, nr, edges)
        m1 = matching_size(augmenting_path_matching(b))
        m2 = matching_size(hopcroft_karp(b))
        assert m1 == m2

    @pytest.mark.parametrize("seed", range(10))
    def test_against_networkx(self, seed):
        import random

        import networkx as nx

        rng = random.Random(seed + 50)
        nl, nr = rng.randint(2, 10), rng.randint(2, 10)
        edges = [
            (l, r)
            for l in range(nl)
            for r in range(nr)
            if rng.random() < 0.35
        ]
        b = build(nl, nr, edges)
        ours = matching_size(hopcroft_karp(b))

        nxg = nx.Graph()
        nxg.add_nodes_from((("L", i) for i in range(nl)), bipartite=0)
        nxg.add_nodes_from((("R", j) for j in range(nr)), bipartite=1)
        nxg.add_edges_from(((("L", l), ("R", r)) for l, r in edges))
        theirs = len(
            nx.bipartite.maximum_matching(
                nxg, top_nodes=[("L", i) for i in range(nl)]
            )
        ) // 2
        assert ours == theirs

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs(max_side=5))
    def test_against_brute_force(self, instance):
        nl, nr, edges = instance
        b = build(nl, nr, edges)
        match = augmenting_path_matching(b)
        b.validate_matching(match)
        assert matching_size(match) == brute_force_maximum(nl, nr, edges)
