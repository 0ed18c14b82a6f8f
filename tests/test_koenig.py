"""Tests for the König / Dulmage–Mendelsohn decomposition.

Verifies Theorems 2 and 3 of the paper: |MVC| = |MM| (König) and
|MIS| + |MVC| = n, plus the structural properties of the Even/Odd/core
classes and the Hasan–Liu critical set.
"""

import random

import pytest
from hypothesis import given, settings

from repro.errors import MatchingError
from tests.bipartite import (
    BipartiteGraph,
    augmenting_path_matching,
    decompose_bipartite,
    hopcroft_karp,
    matching_size,
)
from tests.conftest import bipartite_strategy


def build(nl, nr, edges):
    b = BipartiteGraph([("L", i) for i in range(nl)],
                       [("R", j) for j in range(nr)])
    for l, r in edges:
        b.add_edge(("L", l), ("R", r))
    return b


def decomposed(nl, nr, edges):
    b = build(nl, nr, edges)
    match = hopcroft_karp(b)
    return b, match, decompose_bipartite(b, match)


class TestKnownInstances:
    def test_single_edge(self):
        b, match, d = decomposed(1, 1, [(0, 0)])
        # Both vertices matched and unreachable: the core.
        assert d.core_left == {("L", 0)}
        assert d.core_right == {("R", 0)}
        assert d.critical_set == frozenset()

    def test_star(self):
        # One left vertex, three right: two rights unmatched, the left
        # vertex is the unique MVC (critical).
        b, match, d = decomposed(1, 3, [(0, 0), (0, 1), (0, 2)])
        assert d.critical_set == {("L", 0)}
        assert d.minimum_vertex_cover() == {("L", 0)}
        mis = d.maximum_independent_set()
        assert mis == {("R", 0), ("R", 1), ("R", 2)}

    def test_isolated_vertices_are_winners(self):
        b, match, d = decomposed(2, 2, [(0, 0)])
        assert ("L", 1) in d.even_left
        assert ("R", 1) in d.even_right


class TestTheorems:
    @settings(max_examples=80, deadline=None)
    @given(bipartite_strategy(max_side=6))
    def test_koenig_theorems_2_and_3(self, instance):
        nl, nr, edges = instance
        b, match, d = decomposed(nl, nr, edges)
        mm = matching_size(match)
        mvc = d.minimum_vertex_cover()
        mis = d.maximum_independent_set()
        n = nl + nr
        # Theorem 3: |MVC| = |MM|
        assert len(mvc) == mm
        # Theorem 2: |MIS| + |MVC| = n and they partition the vertices
        assert len(mis) + len(mvc) == n
        assert mis | mvc == b.left | b.right
        assert not (mis & mvc)

    @settings(max_examples=80, deadline=None)
    @given(bipartite_strategy(max_side=6))
    def test_cover_covers_and_mis_independent(self, instance):
        nl, nr, edges = instance
        b, match, d = decomposed(nl, nr, edges)
        mvc = d.minimum_vertex_cover()
        mis = d.maximum_independent_set()
        for l, r in b.edges():
            assert l in mvc or r in mvc
            assert not (l in mis and r in mis)

    @settings(max_examples=50, deadline=None)
    @given(bipartite_strategy(max_side=6))
    def test_both_core_orientations_work(self, instance):
        nl, nr, edges = instance
        b, match, d = decomposed(nl, nr, edges)
        for flag in (True, False):
            mvc = d.minimum_vertex_cover(cover_core_left=flag)
            assert len(mvc) == matching_size(match)
            for l, r in b.edges():
                assert l in mvc or r in mvc


class TestCriticalSet:
    def test_critical_set_independent_of_matching(self):
        # Hasan–Liu: Odd sets do not depend on which MM was used.
        rng = random.Random(4)
        nl = nr = 7
        edges = [(l, r) for l in range(nl) for r in range(nr)
                 if rng.random() < 0.3]
        b = build(nl, nr, edges)
        d1 = decompose_bipartite(b, hopcroft_karp(b))
        d2 = decompose_bipartite(b, augmenting_path_matching(b))
        assert d1.critical_set == d2.critical_set
        assert d1.even_left == d2.even_left
        assert d1.core_left == d2.core_left

    def test_critical_set_in_every_cover(self):
        # The critical set must be a subset of both orientations' MVCs.
        b, match, d = decomposed(
            3, 3, [(0, 0), (0, 1), (1, 0), (2, 2)]
        )
        for flag in (True, False):
            assert d.critical_set <= d.minimum_vertex_cover(flag)


class TestValidation:
    def test_non_maximum_matching_rejected(self):
        b = build(2, 2, [(0, 0), (0, 1), (1, 0)])
        # A maximal-but-not-maximum matching: just (0,0).
        bad = {("L", 0): ("R", 0), ("R", 0): ("L", 0)}
        with pytest.raises(MatchingError):
            decompose_bipartite(b, bad)

    def test_invalid_matching_rejected(self):
        b = build(2, 2, [(0, 0)])
        with pytest.raises(MatchingError):
            decompose_bipartite(b, {("L", 0): ("R", 1), ("R", 1): ("L", 0)})
