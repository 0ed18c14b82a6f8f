"""The determinism contract of :mod:`repro.parallel`.

Three families of guarantees:

1. **Backend equivalence** — for every fanned-out algorithm (RCut
   restarts, FM multi-start, the bench suite) the serial, thread, and
   process backends produce bit-identical results: same partition,
   same ``nets_cut``/``ratio_cut``, same details.
2. **Seed determinism** — every top-level partitioner run twice with
   the same seed returns an identical :class:`PartitionResult`.
3. **Executor semantics** — submission-order reduction, per-task seed
   spawning (prefix-stable), exception propagation with task context,
   nested-fan-out suppression, and env-var resolution.

Process-pool workers unpickle tasks by module path, so every task
function used with the process backend lives at module level here.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.clustering import MultilevelConfig, multilevel_partition
from repro.errors import ReproError
from repro.parallel import (
    BACKENDS,
    ParallelConfig,
    ParallelError,
    capture_fragment,
    merge_fragment,
    pmap,
    pstarmap,
    resolve_parallel,
    spawn_seeds,
)
from repro.partitioning import (
    AnnealingConfig,
    EIG1Config,
    FMConfig,
    IGMatchConfig,
    IGVoteConfig,
    KLConfig,
    RCutConfig,
    anneal,
    eig1,
    fm_bipartition,
    ig_match,
    ig_vote,
    kl_bisection,
    rcut,
)
from tests.conftest import random_hypergraph
from tests.strategies import partitionable_hypergraphs

POOL_BACKENDS = ("thread", "process")


def fingerprint(result):
    """Everything deterministic about a PartitionResult (no wall time)."""
    return (
        result.algorithm,
        tuple(result.partition.sides),
        result.nets_cut,
        result.ratio_cut,
        result.details,
    )


# ----------------------------------------------------------------------
# Module-level task functions (picklable for the process backend)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _add(x, y):
    return x + y


def _sleep_inverse(index, total):
    """Finish in reverse submission order to stress the reducer."""
    time.sleep(0.01 * (total - index))
    return index


def _raise_value_error(x):
    if x == 2:
        raise ValueError(f"boom on {x}")
    return x


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("unpicklable")
        self.payload = lambda: None  # lambdas cannot be pickled


def _raise_unpicklable(x):
    raise _Unpicklable()


def _nested_pmap(x):
    """A task that itself fans out: must run inline, not deadlock."""
    return sum(pmap(_square, range(x), ParallelConfig(2, "thread")))


def _count_with_obs(x):
    obs.STATE.counters["worker.calls"] = (
        obs.STATE.counters.get("worker.calls", 0) + 1
    )
    return x


# ----------------------------------------------------------------------
# spawn_seeds: the per-task seed derivation
# ----------------------------------------------------------------------
class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(42, 8) == spawn_seeds(42, 8)

    def test_prefix_stable(self):
        """Adding tasks never changes earlier tasks' seeds."""
        assert spawn_seeds(7, 3) == spawn_seeds(7, 100)[:3]

    def test_distinct_within_a_run(self):
        seeds = spawn_seeds(0, 64)
        assert len(set(seeds)) == 64

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_master_seeds_give_distinct_streams(self, a, b):
        assume(a != b)
        assert spawn_seeds(a, 4) != spawn_seeds(b, 4)

    def test_range_fits_in_signed_64_bit(self):
        for seed in spawn_seeds(123, 32):
            assert 0 <= seed < 2**63

    def test_zero_count(self):
        assert spawn_seeds(5, 0) == []


# ----------------------------------------------------------------------
# ParallelConfig construction and env resolution
# ----------------------------------------------------------------------
class TestParallelConfig:
    def test_defaults_are_serial(self):
        config = ParallelConfig()
        assert (config.workers, config.backend) == (1, "serial")
        assert config.effective_workers() == 1

    def test_invalid_backend_rejected(self):
        with pytest.raises(ReproError):
            ParallelConfig(workers=2, backend="mpi")

    def test_negative_workers_rejected(self):
        with pytest.raises(ReproError):
            ParallelConfig(workers=-1)

    def test_auto_workers_detects_cpus(self):
        config = ParallelConfig(workers=0, backend="thread")
        assert config.effective_workers() >= 1

    def test_serial_backend_uses_one_worker(self):
        assert ParallelConfig(8, "serial").effective_workers() == 1

    def test_resolve_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        config = resolve_parallel()
        assert (config.workers, config.backend) == (1, "serial")

    def test_resolve_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        config = resolve_parallel()
        assert (config.workers, config.backend) == (3, "thread")

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        config = resolve_parallel(workers=2, backend="process")
        assert (config.workers, config.backend) == (2, "process")

    def test_workers_imply_process_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_parallel(workers=4).backend == "process"

    def test_malformed_env_workers_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "two")
        with pytest.raises(ReproError):
            resolve_parallel()


# ----------------------------------------------------------------------
# pmap / pstarmap semantics
# ----------------------------------------------------------------------
class TestExecutorSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pmap_maps_in_order(self, backend):
        config = ParallelConfig(2, backend)
        assert pmap(_square, range(10), config) == [
            x * x for x in range(10)
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pstarmap_unpacks_tuples(self, backend):
        config = ParallelConfig(2, backend)
        args = [(i, 10 * i) for i in range(6)]
        assert pstarmap(_add, args, config) == [11 * i for i in range(6)]

    def test_results_follow_submission_order_not_finish_order(self):
        total = 6
        out = pmap(
            lambda i: _sleep_inverse(i, total),
            range(total),
            ParallelConfig(total, "thread"),
        )
        assert out == list(range(total))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_items(self, backend):
        assert pmap(_square, [], ParallelConfig(2, backend)) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_item(self, backend):
        assert pmap(_square, [7], ParallelConfig(2, backend)) == [49]

    def test_one_worker_runs_inline(self):
        # workers=1 never touches a pool, whatever the backend says.
        assert pmap(_square, range(4), ParallelConfig(1, "process")) == [
            0, 1, 4, 9,
        ]

    def test_zero_workers_auto_detect(self):
        config = ParallelConfig(0, "thread")
        assert pmap(_square, range(5), config) == [0, 1, 4, 9, 16]

    def test_none_config_is_serial(self):
        assert pmap(_square, range(3), None) == [0, 1, 4]

    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_nested_fan_out_runs_inline(self, backend):
        out = pmap(_nested_pmap, [3, 4], ParallelConfig(2, backend))
        assert out == [sum(x * x for x in range(3)),
                       sum(x * x for x in range(4))]


class TestExceptionPropagation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_original_type_and_message_survive(self, backend):
        config = ParallelConfig(2, backend)
        with pytest.raises(ValueError, match="boom on 2"):
            pmap(_raise_value_error, range(5), config)

    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_worker_traceback_attached(self, backend):
        config = ParallelConfig(2, backend)
        with pytest.raises(ValueError) as info:
            pmap(_raise_value_error, range(5), config)
        assert "boom on 2" in getattr(info.value, "worker_traceback", "")

    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_task_context_noted(self, backend):
        config = ParallelConfig(2, backend)
        with pytest.raises(ValueError) as info:
            pmap(_raise_value_error, range(5), config, label="mylabel")
        notes = "".join(getattr(info.value, "__notes__", []))
        assert "3/5" in notes and "mylabel" in notes

    def test_unpicklable_exception_becomes_parallel_error(self):
        config = ParallelConfig(2, "process")
        with pytest.raises((ParallelError, _Unpicklable)) as info:
            pmap(_raise_unpicklable, range(3), config)
        assert "unpicklable" in str(info.value)

    def test_thread_backend_keeps_unpicklable_exception(self):
        config = ParallelConfig(2, "thread")
        with pytest.raises(_Unpicklable):
            pmap(_raise_unpicklable, range(3), config)


# ----------------------------------------------------------------------
# Backend equivalence on the real algorithms (satellite 1)
# ----------------------------------------------------------------------
def _pool(backend):
    return ParallelConfig(3, backend)


class TestRCutEquivalence:
    @given(partitionable_hypergraphs(), st.integers(0, 1000))
    @settings(max_examples=12, deadline=None)
    def test_all_backends_identical(self, h, seed):
        config = RCutConfig(restarts=4, seed=seed)
        serial = rcut(h, config)
        for backend in POOL_BACKENDS:
            parallel = rcut(
                h,
                RCutConfig(restarts=4, seed=seed, parallel=_pool(backend)),
            )
            assert fingerprint(parallel) == fingerprint(serial)

    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_fixed_circuit(self, backend, two_cluster_hypergraph):
        h = two_cluster_hypergraph
        serial = rcut(h, RCutConfig(restarts=6, seed=3))
        parallel = rcut(
            h, RCutConfig(restarts=6, seed=3, parallel=_pool(backend))
        )
        assert fingerprint(parallel) == fingerprint(serial)
        assert parallel.details["restarts"] == 6

    def test_restart_prefix_stability(self):
        """Growing ``restarts`` never changes earlier restarts."""
        h = random_hypergraph(5, num_modules=14, num_nets=18)
        small = rcut(h, RCutConfig(restarts=3, seed=9))
        large = rcut(h, RCutConfig(restarts=8, seed=9))
        assert large.details["runs"][:3] == small.details["runs"]

    @given(st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_restart_prefix_stability_any_seed(self, seed):
        h = random_hypergraph(1, num_modules=12, num_nets=15)
        small = rcut(h, RCutConfig(restarts=2, seed=seed))
        large = rcut(h, RCutConfig(restarts=5, seed=seed))
        assert large.details["runs"][:2] == small.details["runs"]


class TestFMEquivalence:
    @given(partitionable_hypergraphs(), st.integers(0, 1000))
    @settings(max_examples=12, deadline=None)
    def test_all_backends_identical(self, h, seed):
        config = FMConfig(seed=seed, starts=3)
        serial = fm_bipartition(h, config)
        for backend in POOL_BACKENDS:
            parallel = fm_bipartition(
                h, FMConfig(seed=seed, starts=3, parallel=_pool(backend))
            )
            assert fingerprint(parallel) == fingerprint(serial)

    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_fixed_circuit(self, backend, two_cluster_hypergraph):
        h = two_cluster_hypergraph
        serial = fm_bipartition(h, FMConfig(seed=1, starts=4))
        parallel = fm_bipartition(
            h, FMConfig(seed=1, starts=4, parallel=_pool(backend))
        )
        assert fingerprint(parallel) == fingerprint(serial)
        assert parallel.details["starts"] == 4

    def test_single_start_matches_historical_path(self):
        """starts=1 must take the exact pre-parallelism code path."""
        h = random_hypergraph(2, num_modules=14, num_nets=18)
        a = fm_bipartition(h, FMConfig(seed=4))
        b = fm_bipartition(h, FMConfig(seed=4, starts=1,
                                       parallel=_pool("thread")))
        assert fingerprint(a) == fingerprint(b)


# ----------------------------------------------------------------------
# Seed determinism for every top-level partitioner (satellite 3)
# ----------------------------------------------------------------------
_PARTITIONERS = {
    "ig-match": lambda h: ig_match(h, IGMatchConfig(seed=5)),
    "ig-vote": lambda h: ig_vote(h, IGVoteConfig(seed=5)),
    "eig1": lambda h: eig1(h, EIG1Config(seed=5)),
    "rcut": lambda h: rcut(h, RCutConfig(restarts=4, seed=5)),
    "fm": lambda h: fm_bipartition(h, FMConfig(seed=5, starts=2)),
    "kl": lambda h: kl_bisection(h, KLConfig(seed=5)),
    "anneal": lambda h: anneal(h, AnnealingConfig(seed=5)),
    "multilevel": lambda h: multilevel_partition(
        h, MultilevelConfig(seed=5)
    ),
}


class TestSeedDeterminism:
    @pytest.mark.parametrize("name", sorted(_PARTITIONERS))
    def test_same_seed_same_result(self, name):
        h = random_hypergraph(8, num_modules=16, num_nets=20)
        run = _PARTITIONERS[name]
        assert fingerprint(run(h)) == fingerprint(run(h))


# ----------------------------------------------------------------------
# Observability under parallelism
# ----------------------------------------------------------------------
class TestObsUnderParallelism:
    def _counters_and_spans(self, backend, workers):
        with obs.isolated():
            with obs.enabled():
                rcut(
                    random_hypergraph(4, num_modules=14, num_nets=18),
                    RCutConfig(
                        restarts=5, seed=2,
                        parallel=ParallelConfig(workers, backend),
                    ),
                )
                return dict(obs.counters()), obs.flatten_totals()

    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_counters_and_span_counts_match_serial(self, backend):
        counters, totals = self._counters_and_spans("serial", 1)
        pcounters, ptotals = self._counters_and_spans(backend, 3)
        assert pcounters == counters
        assert {k: count for k, (_, count) in ptotals.items()} == {
            k: count for k, (_, count) in totals.items()
        }
        assert totals["rcut.restart"][1] == 5

    def test_worker_counters_merge_into_parent(self):
        with obs.isolated():
            with obs.enabled():
                pmap(
                    _count_with_obs,
                    range(6),
                    ParallelConfig(3, "thread"),
                )
                assert obs.counters()["worker.calls"] == 6

    def test_capture_fragment_returns_result_and_counters(self):
        result, fragment = capture_fragment(_count_with_obs, 41)
        assert result == 41
        assert fragment["counters"]["worker.calls"] == 1

    def test_merge_fragment_noop_when_disabled(self):
        _, fragment = capture_fragment(_count_with_obs, 1)
        merge_fragment(fragment)  # obs disabled: must not raise
        merge_fragment(None)

    def test_disabled_obs_adds_no_capture_overhead(self):
        # With obs off, workers must not ship fragments at all; the
        # visible contract is simply that results are unchanged.
        out = pmap(_square, range(8), ParallelConfig(2, "thread"))
        assert out == [x * x for x in range(8)]
