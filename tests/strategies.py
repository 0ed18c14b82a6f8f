"""Shared hypothesis strategies for the test suite.

One home for every generator the property tests draw from, so each
suite fuzzes the same instance space:

- :func:`hypergraphs` — the workhorse: random hypergraphs with a
  controllable pin-size distribution and optional degenerate features
  (empty nets, isolated/singleton modules, duplicate pins).
- :func:`partitionable_hypergraphs` — hypergraphs every bipartitioner
  accepts (>= 4 modules, every net with >= 2 pins).
- :func:`bipartite_graphs` — ``(num_left, num_right, edges)`` triples
  for the matching tests.
- :func:`netlist_texts` — adversarial parser input skewed toward
  format-relevant tokens.
- :func:`named_hypergraphs` — hypergraphs with arbitrary names, areas
  and net weights, for the writer round trips.
- :func:`edge_lists` — ``(n, edges)`` for graph builds, with repeated
  pairs and weights of many magnitudes.

``hypergraph_strategy`` and ``bipartite_strategy`` are kept as aliases
for the historical names exported from ``tests.conftest``.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.hypergraph import Hypergraph

__all__ = [
    "adversarial_csr_hypergraphs",
    "bipartite_graphs",
    "bipartite_strategy",
    "edge_lists",
    "hypergraph_strategy",
    "hypergraphs",
    "named_hypergraphs",
    "netlist_texts",
    "partitionable_hypergraphs",
    "pin_counts",
]


# ----------------------------------------------------------------------
# Hypergraphs
# ----------------------------------------------------------------------
def pin_counts(max_size: int, skew: str = "uniform"):
    """A strategy for one net's pin count in ``2 .. max_size``.

    ``skew`` shapes the distribution: ``"uniform"`` draws all sizes
    equally, ``"two-pin"`` mimics real netlists (mostly 2-pin nets with
    an occasional wide bus), ``"wide"`` favours the largest sizes.
    """
    if max_size <= 2 or skew == "uniform":
        return st.integers(2, max_size)
    if skew == "two-pin":
        return st.one_of(
            st.just(2),
            st.just(2),
            st.just(3),
            st.integers(2, max_size),
        )
    if skew == "wide":
        return st.integers(max(2, max_size - 2), max_size)
    raise ValueError(f"unknown pin skew {skew!r}")


@st.composite
def hypergraphs(
    draw,
    min_modules=3,
    max_modules=12,
    min_nets=2,
    max_nets=14,
    max_net_size=5,
    pin_skew="uniform",
    allow_empty_nets=False,
    allow_singleton_modules=False,
    allow_duplicate_pins=False,
):
    """Random small hypergraphs.

    By default every net has >= 2 distinct pins and every module index
    below the maximum drawn appears in some net — the shape all the
    algorithms accept.  The ``allow_*`` flags mix in the degenerate
    cases the data structures must tolerate:

    - ``allow_empty_nets``: some nets have no pins at all.
    - ``allow_singleton_modules``: ``num_modules`` may exceed the
      largest pin, leaving isolated modules connected to nothing.
    - ``allow_duplicate_pins``: raw pin lists may repeat a module
      (the constructor collapses duplicates).
    """
    n = draw(st.integers(min_modules, max_modules))
    m = draw(st.integers(min_nets, max_nets))
    size_strategy = pin_counts(min(max_net_size, n), skew=pin_skew)
    nets = []
    for _ in range(m):
        if allow_empty_nets and draw(st.booleans()):
            nets.append([])
            continue
        size = draw(size_strategy)
        pins = draw(
            st.lists(
                st.integers(0, n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        if allow_duplicate_pins and draw(st.booleans()):
            pins = pins + [pins[0]]
        nets.append(pins)
    num_modules = n
    if allow_singleton_modules:
        num_modules = n + draw(st.integers(0, 3))
    return Hypergraph(nets, num_modules=num_modules)


@st.composite
def adversarial_csr_hypergraphs(draw):
    """Hypergraphs shaped to stress the flat CSR incidence arrays.

    Every degenerate row shape the arrays must hold exactly, mixed
    freely: empty nets (zero-length rows), singleton modules (trailing
    empty transpose rows), duplicate raw pins (collapsed by the
    constructor before the arrays are built), isolated modules
    mid-range, and optionally one hub module on *every* net (a dense
    transpose row, the worst case for per-degree batching).  Named,
    weighted, and area-carrying variants are mixed in so code that
    carries the metadata through (the delta algebra) is exercised too.
    """
    h = draw(
        hypergraphs(
            min_modules=2,
            max_modules=10,
            min_nets=0,
            max_nets=12,
            allow_empty_nets=True,
            allow_singleton_modules=True,
            allow_duplicate_pins=True,
        )
    )
    nets = [list(h.pins(e)) for e in range(h.num_nets)]
    num_modules = h.num_modules
    if draw(st.booleans()):
        # One module on every net: the densest possible transpose row.
        hub = num_modules
        num_modules += 1
        nets = [pins + [hub] for pins in nets]
    module_areas = None
    if draw(st.booleans()):
        module_areas = [
            draw(st.floats(0.0, 8.0, allow_nan=False))
            for _ in range(num_modules)
        ]
    net_weights = None
    if draw(st.booleans()):
        net_weights = [
            draw(st.floats(0.0, 4.0, allow_nan=False))
            for _ in range(len(nets))
        ]
    module_names = None
    if draw(st.booleans()):
        module_names = [f"mod{i}" for i in range(num_modules)]
    net_names = None
    if draw(st.booleans()):
        net_names = [f"sig{i}" for i in range(len(nets))]
    return Hypergraph(
        nets,
        num_modules=num_modules,
        module_names=module_names,
        net_names=net_names,
        module_areas=module_areas,
        net_weights=net_weights,
        name=draw(st.sampled_from(["", "adv", "csr-case"])),
    )


def partitionable_hypergraphs(**kwargs):
    """Hypergraphs every bipartitioner accepts.

    At least 4 modules (so both sides of any balanced start are
    non-empty) and only well-formed nets.
    """
    kwargs.setdefault("min_modules", 4)
    kwargs.setdefault("min_nets", 3)
    return hypergraphs(**kwargs)


# ----------------------------------------------------------------------
# Bipartite graphs (for the matching tests)
# ----------------------------------------------------------------------
@st.composite
def bipartite_graphs(draw, max_side=7):
    """Random small bipartite graphs as (left, right, edges) triples."""
    nl = draw(st.integers(1, max_side))
    nr = draw(st.integers(1, max_side))
    possible = [(l, r) for l in range(nl) for r in range(nr)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    return nl, nr, edges


# ----------------------------------------------------------------------
# Netlist text (for the parser fuzz tests)
# ----------------------------------------------------------------------
#: Text skewed toward format-relevant tokens so the fuzzer reaches deep
#: parser states, plus raw unicode for the shallow ones.
_TOKENS = st.sampled_from(
    [
        "module", "endmodule", "input", "output", "wire", "net",
        "NumNets", "NumPins", "NetDegree", "UCLA", "nets", "nodes",
        "1.0", ":", ";", "(", ")", ",", "%", "#", "//", "0", "1",
        "7", "-3", "a", "b", "g1", "\n", " ", "terminal",
    ]
)
_STRUCTURED_TEXT = st.lists(_TOKENS, max_size=60).map(" ".join)
_RAW_TEXT = st.text(max_size=200)


def netlist_texts():
    """Adversarial parser input: token soup or raw unicode."""
    return st.one_of(_STRUCTURED_TEXT, _RAW_TEXT)


# ----------------------------------------------------------------------
# Named netlists (for the writer round trips)
# ----------------------------------------------------------------------
#: Names every writer accepts, names some accept, and arbitrary text.
_NAMES = st.one_of(
    st.from_regex(r"[a-z_][a-z0-9_]{0,3}", fullmatch=True),
    st.sampled_from(["pad:a", "pad:b", "n 1", "n#1", "x 2", "", "a\nnet"]),
    st.text(max_size=5),
)
_AREAS = st.one_of(
    st.sampled_from([1.0, 0.0, 2.0, 1.23456789, 1e-300]),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)
_WEIGHTS = st.sampled_from([1.0, 1.0, 2.0, 1.5, 2.25, 0.0])


@st.composite
def named_hypergraphs(draw, max_modules=6, max_nets=6):
    """Small hypergraphs whose names, areas and net weights are each
    either absent or drawn: identifiers, ``pad:`` names, names with
    whitespace or ``#``, repeats, arbitrary text, inexact areas and
    fractional weights.  Empty nets and isolated modules occur too."""
    n = draw(st.integers(0, max_modules))
    nets = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=4) if n else
            st.just([]),
            max_size=max_nets,
        )
    )
    m = len(nets)

    def optional(element, size):
        return draw(
            st.none() | st.lists(element, min_size=size, max_size=size)
        )

    return Hypergraph(
        nets,
        num_modules=n,
        module_names=optional(_NAMES, n),
        net_names=optional(_NAMES, m),
        module_areas=optional(_AREAS, n),
        net_weights=optional(_WEIGHTS, m),
        name=draw(_NAMES),
    )


# ----------------------------------------------------------------------
# Edge lists (for the graph builds)
# ----------------------------------------------------------------------
#: Weights of many magnitudes, so the order of a sum shows in its bits.
EDGE_WEIGHTS = st.sampled_from(
    [1.0, 1 / 3, 1 / 7, 0.1, 2.5e-9, 1e-16, 1e8, 3.0]
)


@st.composite
def edge_lists(draw, min_vertices=2, max_vertices=6, max_edges=30):
    """``(n, [(u, v, w), ...])`` with few vertices, so pairs repeat;
    a graph with fewer than two vertices has no edges."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    if n < 2:
        return n, []
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.lists(
            st.tuples(vertex, vertex, EDGE_WEIGHTS).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=max_edges,
        )
    )
    return n, edges


# Historical names (originally defined in tests/conftest.py).
hypergraph_strategy = hypergraphs
bipartite_strategy = bipartite_graphs
