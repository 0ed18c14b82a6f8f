"""Differential suite: the array-backed pipeline steps vs their
loop-based references in :mod:`tests.oracles`.

The intersection build, the adjacency assembly under every Laplacian,
the Fiedler solver's shifted Laplacian, FM initialisation and the
IG-Match completion tally's first state run vectorised over CSR arrays.
Their contract is not "close enough" — it is **bit identity** with the
loop versions they replaced.  Test ids name the implementation:
``dict`` runs under :func:`tests.oracles.pipeline` with the references
swapped in, ``csr`` runs the shipped steps.  The suite checks three
ways:

1. End-to-end: all 8 algorithms through :func:`run_partitioner` on
   both, comparing canonical bytes *and* the full obs counter dict (so
   both do the same amount of algorithmic work, not just reach the same
   answer).  An instance that raises must raise the identical error on
   both.
2. Layer-by-layer: intersection-graph construction (adjacency structure,
   bitwise edge weights, insertion order), the matcher's Dulmage–
   Mendelsohn ``classify`` under random sweeps over each graph (against
   the from-scratch oracle), the completion tally's first state, FM
   engine initialisation, and the adjacency, Laplacian and shifted
   Laplacian matrices.
3. Service-level: fingerprints ignore the CSR twin, a served result
   equals a direct compute on either implementation, and a disk cache
   written by one is a hit — byte-identical — for the other.

Modeled on ``tests/test_parallel_equivalence.py``, which plays the same
role for the parallel execution backends.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench import build_circuit
from repro.delta import NetlistDelta
from repro.errors import ReproError
from repro.graph.laplacian import adjacency_matrix, laplacian_matrix
from repro.hypergraph import Hypergraph
from repro.intersection import intersection_graph
from repro.matching.incremental import IncrementalMatching
from repro.netmodels import available_models, get_model
from repro.partitioning.fm import FMEngine
from repro.partitioning.igmatch import _CompletionTally
from repro.service import (
    PartitionEngine,
    PartitionRequest,
    ResultCache,
    canonical_result_bytes,
    run_partitioner,
)
from repro.service.engine import ALGORITHMS
from repro.service.fingerprint import canonical_fingerprint, exact_fingerprint
from repro.spectral import spectral_ordering
from repro.spectral.fiedler import _shifted_laplacian
from tests.conftest import random_hypergraph
from tests.oracles import (
    IMPLEMENTATIONS,
    UnprunedMatching,
    classify_from_scratch,
    pipeline,
    reference_adjacency_matrix,
    reference_intersection_graph,
    reference_shifted_laplacian,
    reference_tally_init,
)
from tests.strategies import (
    adversarial_csr_hypergraphs,
    hypergraphs,
    partitionable_hypergraphs,
)

WEIGHTINGS = ("unit", "overlap", "jaccard", "paper")

#: Nets 0 and 1 share 44 modules of several degrees: 44 weight rounds.
WIDE_OVERLAP = Hypergraph(
    [list(range(45)), list(range(1, 46))]
    + [[v, v + 1] for v in range(0, 45, 3)]
)
#: Module v < 14 lies on nets 0 .. v: degrees 1 .. 14.
MANY_DEGREES = Hypergraph([[*range(j, 14), 14 + j] for j in range(16)])
#: No module lies on two nets: the empty edge state.
NO_COINCIDENCE = Hypergraph([[0, 1], [2, 3, 4], [5], []], num_modules=7)


def with_edge_cases(test):
    """``test`` also run on the three netlists above."""
    for h in (WIDE_OVERLAP, MANY_DEGREES, NO_COINCIDENCE):
        test = example(h=h)(test)
    return test


def run_one(implementation, h, request):
    """One full run on ``implementation``: (outcome, counters).

    ``outcome`` is the canonical result bytes on success, or an
    ``("error", type-name, message)`` triple when the instance is
    infeasible — identical errors are equivalent behaviour.  Counters
    are the complete deterministic obs tally for the run.
    """
    with obs.isolated() as state:
        obs.enable()
        try:
            with pipeline(implementation):
                result = run_partitioner(h, request)
            outcome = canonical_result_bytes(result)
        except ReproError as exc:
            outcome = ("error", type(exc).__name__, str(exc))
        finally:
            obs.disable()
        return outcome, dict(state.counters)


def graph_signature(g) -> list:
    """Rows in stored order with bitwise-exact weights, of a
    :class:`~repro.graph.Graph` or its dict twin."""
    return [
        (v, [(u, struct.pack("<d", w)) for u, w in g.neighbor_weights(v)])
        for v in range(g.num_vertices)
    ]


def matrix_bits(a) -> tuple:
    """A CSR matrix's pattern and IEEE-754 values."""
    return (
        a.shape,
        a.indptr.tolist(),
        a.indices.tolist(),
        [struct.pack("<d", x) for x in a.data],
    )


# ----------------------------------------------------------------------
# 1. End-to-end: every algorithm, dict == csr
# ----------------------------------------------------------------------
class TestEndToEnd:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_algorithms_bit_identical(self, algorithm):
        for seed in range(6):
            h = random_hypergraph(seed, num_modules=14, num_nets=18)
            request = PartitionRequest(
                algorithm=algorithm, seed=seed, restarts=2, starts=2
            )
            d_out, d_counters = run_one("dict", h, request)
            c_out, c_counters = run_one("csr", h, request)
            assert d_out == c_out, (
                f"{algorithm} seed={seed}: results diverge across cores"
            )
            assert d_counters == c_counters, (
                f"{algorithm} seed={seed}: obs counters diverge"
            )

    @pytest.mark.parametrize("algorithm", ("ig-match", "fm", "multilevel"))
    @settings(max_examples=20, deadline=None)
    @given(h=partitionable_hypergraphs(max_modules=16, max_nets=20))
    def test_fuzzed_instances_bit_identical(self, algorithm, h):
        request = PartitionRequest(algorithm=algorithm, seed=3, restarts=1)
        d_out, d_counters = run_one("dict", h, request)
        c_out, c_counters = run_one("csr", h, request)
        assert d_out == c_out
        assert d_counters == c_counters

    def test_split_stride_and_restarts_respected_on_both_cores(self):
        """Non-default knobs, on both implementations."""
        h = random_hypergraph(9, num_modules=16, num_nets=20)
        for request in (
            PartitionRequest("ig-match", seed=1, split_stride=3),
            PartitionRequest("fm", seed=4, restarts=5),
            PartitionRequest("ig-vote", seed=2, starts=3),
        ):
            assert run_one("dict", h, request) == run_one("csr", h, request)


# ----------------------------------------------------------------------
# 2. Layer-by-layer
# ----------------------------------------------------------------------
class TestIntersectionLayer:
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @settings(max_examples=40, deadline=None)
    @given(
        h=hypergraphs(
            max_modules=12,
            max_nets=15,
            allow_empty_nets=True,
            allow_singleton_modules=True,
        )
    )
    # eco-chain's circuit at its size (~1,100 nets, ~11.7k edges), where
    # a wrong per-row insertion order would show.
    @example(h=build_circuit("Test05", seed=0, scale=0.4))
    @with_edge_cases
    def test_graph_identical_including_order(self, weighting, h):
        gd = reference_intersection_graph(h, weighting)
        gc = intersection_graph(h, weighting)
        assert graph_signature(gd) == graph_signature(gc)
        assert struct.pack("<d", gd.total_weight) == struct.pack(
            "<d", gc.total_weight
        )
        assert gd.num_edges == gc.num_edges


class TestSpectralLayer:
    def test_adjacency_and_laplacian_identical(self):
        h = random_hypergraph(2, num_modules=14, num_nets=18)
        g = reference_intersection_graph(h, "paper")
        ad = reference_adjacency_matrix(g)
        with pipeline("dict"):
            ld = laplacian_matrix(g.to_graph())
        g2 = intersection_graph(h, "paper")
        ac = adjacency_matrix(g2)
        lc = laplacian_matrix(g2)
        assert matrix_bits(ad) == matrix_bits(ac)
        assert matrix_bits(ld) == matrix_bits(lc)

    @pytest.mark.parametrize(
        "build",
        [
            *(
                pytest.param(
                    lambda h, w=w: intersection_graph(h, w), id=w
                )
                for w in WEIGHTINGS
            ),
            *(
                pytest.param(lambda h, m=m: get_model(m).to_graph(h), id=m)
                for m in ("clique", "star", "path")
            ),
        ],
    )
    @settings(max_examples=25, deadline=None)
    @given(
        h=hypergraphs(
            max_modules=14,
            max_nets=18,
            allow_empty_nets=True,
            allow_singleton_modules=True,
        )
    )
    @with_edge_cases
    def test_shifted_laplacian_identical(self, build, h):
        """``A + diag(c - d)`` equals ``c·I - (D - A)`` bit for bit,
        index dtypes included, on intersection graphs and on net-model
        graphs whose repeated pairs from_edges accumulated."""
        g = build(h)
        bulk, shift = _shifted_laplacian(g)
        reference, reference_shift = reference_shifted_laplacian(g)
        assert struct.pack("<d", shift) == struct.pack("<d", reference_shift)
        assert matrix_bits(bulk) == matrix_bits(reference)
        assert (bulk.indptr.dtype, bulk.indices.dtype) == (
            reference.indptr.dtype,
            reference.indices.dtype,
        )

    @pytest.mark.parametrize("model", available_models())
    @settings(max_examples=25, deadline=None)
    @given(
        h=hypergraphs(
            max_modules=14,
            max_nets=18,
            allow_empty_nets=True,
            allow_singleton_modules=True,
        )
    )
    @with_edge_cases
    def test_lazy_csr_arrays_identical_on_net_model_graphs(self, model, h):
        """Net-model graphs, whose repeated pairs from_edges
        accumulates and whose rows are in first-insertion order,
        assemble the same adjacency as the COO assembly."""
        g = get_model(model).to_graph(h)
        assert matrix_bits(adjacency_matrix(g)) == matrix_bits(
            reference_adjacency_matrix(g)
        )


class TestMatchingLayer:
    @settings(max_examples=30, deadline=None)
    @given(h=hypergraphs(max_modules=12, max_nets=15))
    def test_classify_identical_under_random_sweeps(self, h):
        """Matchers over each implementation's intersection graph
        classify every split identically, equal to the from-scratch
        oracle, with identical work counters."""
        gd = reference_intersection_graph(h, "paper")
        gc = intersection_graph(h, "paper")
        n = gd.num_vertices
        order = list(range(n))
        random.Random(7).shuffle(order)
        md = IncrementalMatching(gd.to_graph())
        mc = IncrementalMatching(gc)
        for v in order:
            md.move_to_right(v)
            mc.move_to_right(v)
            codes_d = md.classify()
            assert codes_d == mc.classify() == classify_from_scratch(md)

        def work(m):
            return (m.augmentations, m.augmentation_attempts,
                    m.search_visits, m.classify_visits)

        assert work(md) == work(mc)


class TestPrunedSearch:
    """The shipped augmenting search skips the vertices R's reach marks
    rule out; :class:`tests.oracles.UnprunedMatching` searches them
    all.  Both must build the same matching at every split."""

    @pytest.mark.parametrize(
        "stride, warm", [(1, False), (2, False), (3, False), (1, True)],
        ids=["stride-1", "stride-2", "stride-3", "jump-start"],
    )
    @settings(max_examples=40, deadline=None)
    @given(h=hypergraphs(max_modules=12, max_nets=15), data=st.data())
    def test_same_matching_at_every_split(self, stride, warm, h, data):
        g = intersection_graph(h, "paper")
        n = g.num_vertices
        order = data.draw(st.permutations(range(n)))
        shipped = IncrementalMatching(g)
        twin = UnprunedMatching(g)
        start = data.draw(st.integers(0, n - 1)) if warm else 0
        if warm:
            shipped.jump_start(order[:start])
            twin.jump_start(order[:start])
        for index in range(start, n):
            shipped.move_to_right(order[index])
            twin.move_to_right(order[index])
            assert shipped.matching_dict() == twin.matching_dict()
            if (index + 1) % stride == 0:
                assert shipped.classify() == twin.classify()
        assert shipped.augmentations == twin.augmentations
        assert (shipped.augmentation_attempts
                == twin.augmentation_attempts)
        assert shipped.classify_visits == twin.classify_visits
        assert shipped.search_visits <= twin.search_visits

    @pytest.mark.parametrize("stride", [1, 3])
    def test_pruning_engages(self, medium_circuit, stride):
        # Classifying at every split, the shipped searches made 35% of
        # the twin's visits here, and 12-42% on the nine paper circuits
        # at scale 0.4; at every third split, 37% here.  Searches that
        # stopped skipping would make 100%.
        g = intersection_graph(medium_circuit, "paper")
        order = spectral_ordering(g, seed=0)
        shipped = IncrementalMatching(g)
        twin = UnprunedMatching(g)
        for index, v in enumerate(order[:-1]):
            shipped.move_to_right(v)
            twin.move_to_right(v)
            if (index + 1) % stride == 0:
                shipped.classify()
                twin.classify()
        assert shipped.matching_dict() == twin.matching_dict()
        assert shipped.search_visits < 0.5 * twin.search_visits


class TestCompletionLayer:
    @settings(max_examples=60, deadline=None)
    @given(h=adversarial_csr_hypergraphs(), data=st.data())
    def test_tally_init_identical(self, h, data):
        """The completion tally's first state, counted in bulk over the
        incidence arrays, equals the net-by-net replay field by field,
        for any six-class code vector (pins on both sides included)."""
        codes = data.draw(
            st.lists(
                st.integers(0, 5), min_size=h.num_nets, max_size=h.num_nets
            )
        )
        bulk = _CompletionTally(h, codes)
        replayed = _CompletionTally.__new__(_CompletionTally)
        reference_tally_init(replayed, h, codes)
        for field in (
            "_net_pins_to",
            "_pinned_l",
            "_pinned_r",
            "assign",
            "_side_count",
            "_pin_count",
            "_cut_core_l",
            "_cut_core_r",
            "_cuts",
        ):
            got, want = getattr(bulk, field), getattr(replayed, field)
            assert type(got) is list, field
            assert [type(x) for x in got] == [type(x) for x in want], field
            assert got == want, field


class TestFMLayer:
    @settings(max_examples=40, deadline=None)
    @given(
        h=hypergraphs(
            max_modules=14,
            max_nets=18,
            allow_empty_nets=True,
            allow_singleton_modules=True,
        )
    )
    def test_engine_init_identical(self, h):
        sides = [v % 2 for v in range(h.num_modules)]
        with pipeline("dict"):
            ed = FMEngine(h, sides)
        ec = FMEngine(h, sides)
        assert ed.pin_count == ec.pin_count
        assert ed.cut == ec.cut
        assert ed.gains == ec.gains
        assert ed.side_count == ec.side_count
        assert [struct.pack("<d", a) for a in ed.side_area] == [
            struct.pack("<d", a) for a in ec.side_area
        ]


# ----------------------------------------------------------------------
# 3. Service level: fingerprints, engines, and the shared disk cache
# ----------------------------------------------------------------------
class TestServiceLevel:
    def test_fingerprints_are_core_blind(self):
        """Fingerprints read the tuples only: building the incidence
        arrays leaves them unchanged, and applying a delta builds no
        arrays at all."""
        h = random_hypergraph(11, num_modules=13, num_nets=17)

        def prints(x):
            return exact_fingerprint(x), canonical_fingerprint(x)

        assert h._csr is None
        before = prints(h)
        h.csr
        assert prints(h) == before
        edited = NetlistDelta().apply(h)
        assert prints(edited) == before
        assert edited._csr is None

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_served_equals_direct(self, implementation):
        h = random_hypergraph(4, num_modules=13, num_nets=16)
        request = PartitionRequest("ig-match", seed=2, restarts=2)
        with pipeline(implementation):
            engine = PartitionEngine(cache=None)
            served = engine.partition(h, request)
            direct = run_partitioner(h, request)
        assert canonical_result_bytes(served.result) == \
            canonical_result_bytes(direct)
        assert served.source == "computed"
        assert not served.cached

    def _write_then_read(self, tmp_path, h, request, writer, reader):
        with pipeline(writer):
            first = PartitionEngine(
                cache=ResultCache(disk_dir=tmp_path)
            ).partition(h, request)
        assert first.source == "computed"
        # A fresh engine (cold memory tier) on the other implementation,
        # same disk directory: the entry must be a hit and byte-equal
        # to what that implementation computes itself.
        with pipeline(reader):
            engine = PartitionEngine(cache=ResultCache(disk_dir=tmp_path))
            second = engine.partition(h, request)
            own = run_partitioner(h, request)
        assert second.cached
        assert second.source == "disk"
        assert second.fingerprint == first.fingerprint
        assert engine.cache.stats["disk_hits"] == 1
        assert canonical_result_bytes(second.result) == \
            canonical_result_bytes(first.result) == \
            canonical_result_bytes(own)

    def test_dict_written_disk_cache_hits_for_csr_engine(self, tmp_path):
        h = random_hypergraph(8, num_modules=14, num_nets=18)
        request = PartitionRequest("ig-match", seed=5, restarts=2)
        self._write_then_read(tmp_path, h, request, "dict", "csr")

    def test_csr_written_disk_cache_hits_for_dict_engine(self, tmp_path):
        h = random_hypergraph(12, num_modules=12, num_nets=15)
        request = PartitionRequest("fm", seed=6, restarts=3)
        self._write_then_read(tmp_path, h, request, "csr", "dict")
