"""Shared fixtures and hypothesis profiles for the test suite.

The hypothesis strategies themselves live in :mod:`tests.strategies`;
the historical names (``hypergraph_strategy``, ``bipartite_strategy``)
are re-exported here for the test files that import them from
``tests.conftest``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

from repro.bench import generate_hierarchical
from repro.graph import Graph
from repro.hypergraph import Hypergraph
from tests.strategies import (  # noqa: F401  (re-exported)
    bipartite_strategy,
    hypergraph_strategy,
)

# Profiles: "ci" trades example count for wall time so the matrix jobs
# (and the parallel job, where every example forks workers)
# stay fast; "default" is the local run.  Select with
# ``pytest --hypothesis-profile ci``.  Note tests that hardcode
# ``@settings(max_examples=...)`` override the profile's count.
settings.register_profile("default", deadline=None)
settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

#: Run a test inline (one worker) and on a process pool (two).
WORKERS = pytest.mark.parametrize(
    "workers", [1, 2], ids=["serial", "process"]
)


# ----------------------------------------------------------------------
# Small handcrafted instances
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_hypergraph() -> Hypergraph:
    """4 modules, 3 nets: a path-like netlist.

    nets: n0={0,1}, n1={1,2,3}, n2={0,3}
    """
    return Hypergraph([[0, 1], [1, 2, 3], [0, 3]], name="tiny")


@pytest.fixture
def two_cluster_hypergraph() -> Hypergraph:
    """Two 4-module cliques of 2-pin nets joined by one bridge net.

    Modules 0-3 and 4-7; the only crossing net is n12 = {3, 4}.
    The optimal ratio-cut bipartition is {0..3} | {4..7} with 1 net cut.
    """
    nets = []
    for base in (0, 4):
        group = [base, base + 1, base + 2, base + 3]
        for i in range(4):
            for j in range(i + 1, 4):
                nets.append([group[i], group[j]])
    nets.append([3, 4])
    return Hypergraph(nets, name="two-cluster")


@pytest.fixture
def small_circuit() -> Hypergraph:
    """A 120-module hierarchical circuit with a planted 30:90 partition."""
    return generate_hierarchical(
        num_modules=120,
        num_nets=140,
        natural_fraction=0.25,
        crossing_nets=3,
        subcluster_size=20,
        seed=7,
        name="small",
    )


@pytest.fixture
def medium_circuit() -> Hypergraph:
    """A 300-module circuit for integration tests."""
    return generate_hierarchical(
        num_modules=300,
        num_nets=330,
        natural_fraction=0.2,
        crossing_nets=5,
        subcluster_size=40,
        seed=11,
        name="medium",
    )


# ----------------------------------------------------------------------
# Random-instance builders (deterministic in the seed)
# ----------------------------------------------------------------------
def random_hypergraph(
    seed: int,
    num_modules: int = 12,
    num_nets: int = 15,
    max_net_size: int = 5,
) -> Hypergraph:
    """A uniformly random hypergraph, connected-ish via coverage."""
    rng = random.Random(seed)
    nets = []
    for _ in range(num_nets):
        size = rng.randint(2, min(max_net_size, num_modules))
        nets.append(rng.sample(range(num_modules), size))
    # Guarantee every module appears somewhere.
    for v in range(num_modules):
        if not any(v in pins for pins in nets):
            other = (v + 1) % num_modules
            nets.append([v, other])
    return Hypergraph(nets, num_modules=num_modules)


def graph_of(num_vertices: int, edges) -> Graph:
    """:meth:`Graph.from_edges` over ``(u, v)`` or ``(u, v, weight)``
    tuples in the given order; a left-out weight is 1.0."""
    full = [(e[0], e[1], e[2] if len(e) > 2 else 1.0) for e in edges]
    u, v, w = list(zip(*full)) or [(), (), ()]
    return Graph.from_edges(num_vertices, u, v, w)


def random_graph(
    seed: int, num_vertices: int = 10, edge_probability: float = 0.3
) -> Graph:
    """A random weighted graph."""
    rng = random.Random(seed)
    return graph_of(num_vertices, [
        (u, v, rng.choice([0.5, 1.0, 2.0]))
        for u in range(num_vertices)
        for v in range(u + 1, num_vertices)
        if rng.random() < edge_probability
    ])


def connected_random_graph(
    seed: int, num_vertices: int = 10, extra_edges: int = 8
) -> Graph:
    """A random connected graph: a random spanning tree plus extras."""
    rng = random.Random(seed)
    order = list(range(num_vertices))
    rng.shuffle(order)
    edges = [
        (order[i], order[rng.randrange(i)], rng.choice([1.0, 2.0]))
        for i in range(1, num_vertices)
    ]
    pairs = {frozenset(edge[:2]) for edge in edges}
    for _ in range(extra_edges):
        u, v = rng.sample(range(num_vertices), 2)
        if frozenset((u, v)) not in pairs:
            pairs.add(frozenset((u, v)))
            edges.append((u, v))
    return graph_of(num_vertices, edges)
