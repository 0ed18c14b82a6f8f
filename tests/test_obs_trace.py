"""Request-scoped tracing: ids, capture isolation, parallel propagation."""

import re

import pytest

from repro import obs
from repro.hypergraph import Hypergraph
from repro.obs.trace import (
    current_trace_id,
    merge_into_current,
    new_trace_id,
    span_node_from_dict,
    span_node_to_dict,
)
from repro.parallel import ParallelConfig
from repro.service.engine import PartitionRequest, run_partitioner
from tests.conftest import WORKERS, random_hypergraph


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.disable()
    obs.reset()


class TestTraceIds:
    def test_format(self):
        tid = new_trace_id()
        assert re.match(r"[0-9a-f]{16}$", tid)

    def test_unique(self):
        assert len({new_trace_id() for _ in range(64)}) == 64

    def test_no_ambient_trace_id(self):
        assert current_trace_id() is None

    def test_bound_inside_capture_only(self):
        with obs.TraceCapture("abc123") as capture:
            assert current_trace_id() == "abc123"
            assert capture.trace_id == "abc123"
        assert current_trace_id() is None

    def test_minted_when_not_given(self):
        with obs.TraceCapture() as capture:
            assert current_trace_id() == capture.trace_id


class TestCaptureIsolation:
    def test_captures_spans_while_global_obs_off(self):
        assert not obs.is_enabled()
        with obs.TraceCapture() as capture:
            with obs.span("phase.one"):
                obs.incr("work.units", 3)
        assert not obs.is_enabled()
        assert capture.span_names() == ["phase.one"]
        assert capture.counters["work.units"] == 3
        # Nothing leaked into the (disabled) global state.
        assert obs.current_state().roots == []

    def test_trace_id_stamped_on_spans_and_events(self):
        with obs.TraceCapture("feedf00dfeedf00d") as capture:
            with obs.span("phase.two"):
                obs.emit("point.obs", value=1)
        for node in capture.spans:
            assert node["attrs"]["trace_id"] == "feedf00dfeedf00d"
        assert capture.events
        assert all(
            event["trace_id"] == "feedf00dfeedf00d"
            for event in capture.events
        )

    def test_merges_into_enabled_parent(self):
        with obs.enabled():
            with obs.span("outer"):
                with obs.TraceCapture() as capture:
                    with obs.span("inner.phase"):
                        obs.incr("inner.count", 2)
            totals = obs.flatten_totals()
            assert "outer" in totals
            assert "inner.phase" in totals
            assert obs.counters()["inner.count"] == 2
        assert capture.span_names() == ["inner.phase"]

    def test_disabled_parent_sees_nothing(self):
        with obs.TraceCapture():
            with obs.span("quiet.phase"):
                pass
        assert obs.current_state().roots == []
        assert obs.current_state().counters == {}

    def test_exception_propagates_but_capture_completes(self):
        capture = obs.TraceCapture()
        with pytest.raises(RuntimeError, match="boom"):
            with capture:
                with obs.span("failing.phase"):
                    raise RuntimeError("boom")
        assert capture.span_names() == ["failing.phase"]
        assert capture.duration_s > 0
        assert not obs.is_enabled()

    def test_nested_captures(self):
        with obs.TraceCapture("outeraaaaaaaaaaa") as outer:
            with obs.span("outer.work"):
                with obs.TraceCapture("innerbbbbbbbbbbb") as inner:
                    with obs.span("inner.work"):
                        pass
        assert inner.span_names() == ["inner.work"]
        # The inner capture merged into the outer's (enabled) state.
        assert outer.span_names() == ["outer.work", "inner.work"]


class TestFragmentHelpers:
    def test_span_node_round_trip(self):
        with obs.TraceCapture() as capture:
            with obs.span("a", k=1):
                with obs.span("b"):
                    pass
        node = span_node_from_dict(capture.spans[0])
        assert span_node_to_dict(node) == capture.spans[0]

    def test_merge_into_current_none_is_noop(self):
        merge_into_current(None)

    def test_fragment_shape(self):
        with obs.TraceCapture() as capture:
            obs.incr("x", 1)
        fragment = capture.fragment()
        assert set(fragment) == {"counters", "spans", "events"}


class TestParallelPropagation:
    """Worker spans land in the request capture, inline or pooled."""

    @WORKERS
    def test_worker_spans_captured(self, workers):
        h = random_hypergraph(11, num_modules=14, num_nets=18)
        parallel = ParallelConfig(workers)
        assert not obs.is_enabled()
        with obs.TraceCapture() as capture:
            run_partitioner(
                h,
                PartitionRequest("rcut", seed=0, restarts=4),
                parallel=parallel,
            )
        names = capture.span_names()
        # The restart spans may have run in worker processes, yet
        # appear in this request's capture, stamped with its trace id.
        assert "rcut.restart" in names
        assert capture.spans[0]["attrs"]["trace_id"] == capture.trace_id

    @WORKERS
    def test_capture_matches_serial_span_set(self, workers):
        h = random_hypergraph(12, num_modules=14, num_nets=18)
        request = PartitionRequest("rcut", seed=0, restarts=3)
        with obs.TraceCapture() as serial:
            run_partitioner(h, request, parallel=None)
        with obs.TraceCapture() as fanned:
            run_partitioner(
                h,
                request,
                parallel=ParallelConfig(workers),
            )
        assert sorted(set(serial.span_names())) == sorted(
            set(fanned.span_names())
        )
