"""Tests for per-span memory attribution (:mod:`repro.obs.memprof`).

The contract under test: memory profiling is opt-in on top of the
observability layer, adds *nothing* when off (the no-op fast path of
``obs.span`` survives untouched, tracemalloc is never started), and
when on folds ``mem_alloc_bytes`` / ``mem_peak_bytes`` attributes into
the span tree — including spans captured in parallel workers and merged
back as fragments.
"""

import gc
import sys
import tracemalloc

import pytest

from repro import obs
from repro.cli import main
from repro.parallel import ParallelConfig, capture_fragment, pmap
from tests.conftest import WORKERS


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends fully off — including tracemalloc."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    assert not tracemalloc.is_tracing(), "test leaked tracemalloc tracing"


def _alloc_spans():
    """A two-level span tree where the inner span allocates ~1.6 MB."""
    with obs.span("outer"):
        with obs.span("inner"):
            block = list(range(200_000))
        del block


class TestNoopFastPath:
    def test_disabled_spans_allocate_nothing(self):
        """With obs off, a span round trip must not allocate: the
        shared ``_NullSpan`` is the entire code path."""
        sp = obs.span("warmup")  # materialise the shared null span
        with sp:
            pass
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(1000):
            with obs.span("hot"):
                pass
        gc.collect()
        after = sys.getallocatedblocks()
        # Zero in practice; tolerate a couple of interpreter-internal
        # blocks so the test is not flaky across CPython versions.
        assert after - before <= 2

    def test_disabled_records_no_spans_and_no_tracemalloc(self):
        assert not tracemalloc.is_tracing()
        _alloc_spans()
        assert obs.STATE.roots == []
        assert not tracemalloc.is_tracing()
        assert not obs.memprof_active()

    def test_enabled_without_memprof_adds_no_mem_attrs(self):
        """Plain profiling must not pay for (or record) memory
        attribution it never asked for."""
        obs.enable()
        _alloc_spans()
        assert not tracemalloc.is_tracing()
        root = obs.STATE.roots[0]
        assert "mem_alloc_bytes" not in root.attrs
        assert "mem_alloc_bytes" not in root.children[0].attrs


class TestLifecycle:
    def test_enable_starts_and_disable_stops_tracemalloc(self):
        obs.enable()
        obs.enable_memprof()
        assert tracemalloc.is_tracing()
        assert obs.memprof_active()
        obs.disable()  # tears memprof down with the obs session
        assert not tracemalloc.is_tracing()
        assert not obs.memprof_active()

    def test_does_not_stop_foreign_tracemalloc(self):
        """If something else (pytest -X tracemalloc, a debugger) is
        already tracing, memprof must leave it running on teardown."""
        tracemalloc.start()
        try:
            obs.enable()
            obs.enable_memprof()
            obs.disable()
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()

    def test_enable_is_idempotent_per_state(self):
        obs.enable()
        obs.enable_memprof()
        obs.enable_memprof()
        obs.disable_memprof()
        assert not tracemalloc.is_tracing()
        obs.disable()

    def test_context_manager_is_exception_safe(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.memprof_enabled():
                assert tracemalloc.is_tracing()
                raise RuntimeError("boom")
        assert not tracemalloc.is_tracing()

    def test_span_opened_before_enable_closes_cleanly(self):
        """A span already open when memprof turns on has no start
        snapshot — it must close without memory attrs, and its
        children (opened after) must still get theirs."""
        obs.enable()
        with obs.span("early") :
            obs.enable_memprof()
            with obs.span("late"):
                pass
        root = obs.STATE.roots[0]
        assert "mem_alloc_bytes" not in root.attrs
        assert "mem_alloc_bytes" in root.children[0].attrs
        obs.disable()


class TestAttribution:
    def test_allocation_attributed_to_the_allocating_span(self):
        obs.enable()
        with obs.memprof_enabled():
            _alloc_spans()
        root = obs.STATE.roots[0]
        inner = root.children[0]
        # 200k pointers is ~1.6MB on 64-bit CPython.
        assert inner.attrs["mem_alloc_bytes"] > 1_000_000
        assert inner.attrs["mem_peak_bytes"] >= inner.attrs["mem_alloc_bytes"]
        # The list was deleted before `outer` closed: net outer alloc is
        # small, but the peak watermark propagated up.
        assert root.attrs["mem_alloc_bytes"] < 100_000
        assert root.attrs["mem_peak_bytes"] >= inner.attrs["mem_peak_bytes"]

    def test_peak_is_watermark_not_net(self):
        obs.enable()
        with obs.memprof_enabled():
            with obs.span("transient"):
                block = list(range(200_000))
                del block
        node = obs.STATE.roots[0]
        assert node.attrs["mem_peak_bytes"] > 1_000_000
        assert node.attrs["mem_alloc_bytes"] < node.attrs["mem_peak_bytes"]

    def test_trace_capture_inherits_enclosing_memprof(self):
        obs.enable()
        with obs.memprof_enabled():
            with obs.TraceCapture("t1") as cap:
                with obs.span("work"):
                    block = list(range(100_000))
                del block
        spans = [e for e in cap.events if e.get("type") == "span"]
        assert spans and spans[0]["mem_alloc_bytes"] > 0

    def test_trace_capture_memprof_false_forces_off(self):
        obs.enable()
        with obs.memprof_enabled():
            with obs.TraceCapture("t2", memprof=False) as cap:
                with obs.span("work"):
                    pass
        spans = [e for e in cap.events if e.get("type") == "span"]
        assert spans and "mem_alloc_bytes" not in spans[0]


def _worker(n):
    """Module-level (picklable) worker: allocates inside a span."""
    with obs.span("fanout"):
        block = list(range(n))
    return len(block)


class TestFragments:
    def test_capture_fragment_records_mem_attrs(self):
        _, fragment = capture_fragment(_worker, 100_000, memprof=True)
        span = fragment["spans"][0]
        assert span["attrs"]["mem_alloc_bytes"] > 0
        assert span["attrs"]["mem_peak_bytes"] > 0
        assert not tracemalloc.is_tracing()

    def test_capture_fragment_without_memprof_has_none(self):
        _, fragment = capture_fragment(_worker, 100_000)
        assert "mem_alloc_bytes" not in fragment["spans"][0]["attrs"]

    @WORKERS
    def test_mem_attrs_survive_every_backend(self, workers):
        """pmap under memprof: the merged tree carries the worker-side
        memory attribution, inline or pooled."""
        obs.enable()
        with obs.memprof_enabled():
            results = pmap(
                _worker,
                [50_000, 60_000],
                ParallelConfig(workers),
            )
        assert results == [50_000, 60_000]
        fanouts = [
            c for r in obs.STATE.roots for c in _iter_tree(r)
            if c.name == "fanout"
        ]
        assert len(fanouts) == 2
        for node in fanouts:
            assert node.attrs["mem_alloc_bytes"] > 0

    def test_merge_is_grouping_independent(self):
        """Folding fragments one-by-one or pre-merged must attribute
        the same memory: alloc sums, peak maxes (associativity of the
        sibling merge in reports)."""
        frags = [
            capture_fragment(_worker, n, memprof=True)[1]
            for n in (50_000, 80_000)
        ]

        def merged_memory(fragments):
            obs.reset()
            obs.enable()
            with obs.span("parent"):
                from repro.obs.trace import merge_into_current

                for f in fragments:
                    merge_into_current(f)
            totals = obs.flatten_memory()
            obs.disable()
            obs.reset()
            return totals["fanout"]

        one_by_one = merged_memory(frags)
        re_ordered = merged_memory(list(reversed(frags)))
        assert one_by_one == re_ordered
        alloc, peak = one_by_one
        expected_allocs = [f["spans"][0]["attrs"]["mem_alloc_bytes"] for f in frags]
        expected_peaks = [f["spans"][0]["attrs"]["mem_peak_bytes"] for f in frags]
        assert alloc == sum(expected_allocs)
        assert peak == max(expected_peaks)


def _iter_tree(node):
    yield node
    for child in node.children:
        yield from _iter_tree(child)


class TestReporting:
    def test_phase_report_shows_memory_columns(self):
        obs.enable()
        with obs.memprof_enabled():
            with obs.span("phase"):
                block = list(range(200_000))
            del block
        report = obs.phase_report()
        assert "Δ" in report and "^" in report
        assert "MiB" in report or "KiB" in report

    def test_human_bytes(self):
        assert obs.human_bytes(0) == "0B"
        assert obs.human_bytes(1536) == "1.5KiB"
        assert obs.human_bytes(-1536) == "-1.5KiB"
        assert obs.human_bytes(3 << 20) == "3.0MiB"

    def test_memory_snapshot_keys(self):
        snap = obs.memory_snapshot()
        assert snap["rss_bytes"] > 0
        assert snap["max_rss_bytes"] > 0
        assert "traced_bytes" not in snap  # not tracing
        tracemalloc.start()
        try:
            snap = obs.memory_snapshot()
            assert "traced_bytes" in snap and "traced_peak_bytes" in snap
        finally:
            tracemalloc.stop()

    def test_rss_sampler_high_water(self):
        with obs.rss_sampling(interval_s=0.01) as sampler:
            block = bytearray(4 << 20)
            sampler._sample_once()  # deterministic: no sleep-timing reliance
            del block
        assert sampler.high_water_bytes > 0
        assert sampler.samples >= 1


class TestCli:
    def test_profile_mem_prints_memory_columns(self, capsys):
        rc = main([
            "--generate", "Test02", "--scale", "0.1",
            "--seed", "1", "--profile-mem",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "Δ" in err
        assert "rss high water:" in err
        assert not tracemalloc.is_tracing()

    def test_profile_without_mem_has_no_memory_columns(self, capsys):
        rc = main([
            "--generate", "Test02", "--scale", "0.1",
            "--seed", "1", "--profile",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "rss high water:" not in err
        assert "Δ" not in err
