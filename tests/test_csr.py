"""Unit tests for the flat CSR arrays.

Covers the hypergraph's incidence arrays — row for row what its pin
tuples hold over adversarial shapes, frozen, cached, and dropped from
pickles — plus the Graph's CSR rows the Laplacian assembly rests on
and the bulk-build entry point of the reference linked bucket list.  Result equivalence with the loop-based reference steps lives in
``tests/test_core_equivalence.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from repro.hypergraph import Hypergraph
from tests.conftest import graph_of
from tests.oracles import LinkedGainBuckets, reference_adjacency_matrix
from tests.strategies import adversarial_csr_hypergraphs


def small_h(**kwargs):
    return Hypergraph(
        [[0, 1, 2], [1, 3], [0, 3], [2]], num_modules=5, **kwargs
    )


# ----------------------------------------------------------------------
# Hypergraph incidence arrays
# ----------------------------------------------------------------------
class TestRoundTrip:
    """The arrays hold the pin tuples row for row, in both directions."""

    @settings(max_examples=100)
    @given(adversarial_csr_hypergraphs())
    def test_csr_twin_matches_object_view(self, h):
        c = h.csr
        assert c.net_indptr.size == h.num_nets + 1
        assert c.module_indptr.size == h.num_modules + 1
        assert c.net_indices.size == c.module_indices.size == h.num_pins
        for e in range(h.num_nets):
            row = c.net_indices[c.net_indptr[e]:c.net_indptr[e + 1]]
            assert tuple(row.tolist()) == h.pins(e)
        for v in range(h.num_modules):
            row = c.module_indices[
                c.module_indptr[v]:c.module_indptr[v + 1]
            ]
            assert tuple(row.tolist()) == h.nets_of(v)

    def test_arrays_are_frozen_and_cached(self):
        h = small_h()
        c = h.csr
        assert c is h.csr  # cached
        for arr in c:
            assert arr.dtype == np.int64
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_pickle_drops_csr_cache(self):
        h = small_h(name="pickled")
        _ = h.csr
        clone = pickle.loads(pickle.dumps(h))
        assert clone == h
        assert clone.name == "pickled"
        assert clone._csr is None
        # Rebuilt on demand, with equal content.
        for rebuilt, original in zip(clone.csr, h.csr):
            assert np.array_equal(rebuilt, original)


# ----------------------------------------------------------------------
# Graph CSR adjacency cache
# ----------------------------------------------------------------------
class TestGraphCsrCache:
    def test_lazy_build_matches_adjacency(self):
        """Rows list neighbours in first-insertion order, frozen."""
        g = graph_of(4, [(2, 0, 0.5), (0, 1, 1.25), (3, 1, 2.0)])
        assert g.indptr.tolist() == [0, 2, 4, 5, 6]
        assert g.indices.tolist() == [2, 1, 0, 3, 0, 1]
        assert g.data.tolist() == [0.5, 1.25, 1.25, 2.0, 0.5, 2.0]
        for array in (g.indptr, g.indices, g.data):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_adjacency_matrix_identical_with_and_without_cache(self):
        """The adjacency matrix sorts each row's columns, as the COO
        assembly does."""
        from repro.graph.laplacian import adjacency_matrix

        g = graph_of(5, [(3, 1, 1.5), (0, 3, 0.75), (2, 4, 0.25)])
        fresh = reference_adjacency_matrix(g)
        cached = adjacency_matrix(g)
        assert g.indices.tolist() != cached.indices.tolist()
        assert (fresh != cached).nnz == 0
        assert fresh.dtype == cached.dtype == np.float64
        assert cached.indptr.tolist() == fresh.indptr.tolist()
        assert cached.indices.tolist() == fresh.indices.tolist()
        assert cached.data.tolist() == fresh.data.tolist()


# ----------------------------------------------------------------------
# Bulk bucket build
# ----------------------------------------------------------------------
class TestBucketBulkBuild:
    def test_from_gains_equals_sequential_inserts(self):
        gains = [3, -2, 0, 3, 7, -7, 1, 0]
        sequential = LinkedGainBuckets(max_gain=7)
        for cell, gain in enumerate(gains):
            sequential.insert(cell, gain)
        bulk = LinkedGainBuckets.from_gains(gains)
        assert list(bulk.iter_best_first()) == list(
            sequential.iter_best_first()
        )
        assert len(bulk) == len(gains)

    def test_from_gains_presizes_no_grow(self):
        assert LinkedGainBuckets.from_gains([64, -64, 0]).grows == 0

    def test_from_gains_empty(self):
        assert list(LinkedGainBuckets.from_gains([]).iter_best_first()) \
            == []
