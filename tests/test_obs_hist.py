"""Histogram correctness: buckets, quantiles, merging, Prometheus I/O."""

import math
import random

import pytest

from repro import obs
from repro.obs.hist import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    HistogramSet,
    log_buckets,
)


class TestLogBuckets:
    def test_strictly_increasing(self):
        buckets = log_buckets(1e-4, 100.0, per_decade=4)
        assert all(a < b for a, b in zip(buckets, buckets[1:]))

    def test_span_and_density(self):
        buckets = log_buckets(1e-4, 100.0, per_decade=4)
        assert buckets[0] == pytest.approx(1e-4)
        assert buckets[-1] == pytest.approx(100.0)
        # 6 decades at 4 per decade, inclusive of both ends.
        assert len(buckets) == 25

    def test_default_is_latency_shaped(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(100.0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            log_buckets(1.0, 0.1)
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(0.1, 1.0, per_decade=0)


class TestBucketBoundaries:
    def test_le_semantics_value_on_boundary_counts_low(self):
        hist = Histogram([1.0, 10.0])
        hist.observe(1.0)
        assert hist.bucket_counts == [1, 0, 0]

    def test_values_land_in_expected_buckets(self):
        hist = Histogram([1.0, 10.0])
        for value in (0.5, 1.0, 2.0, 10.0, 11.0):
            hist.observe(value)
        # <=1: {0.5, 1.0}; <=10: {2.0, 10.0}; +Inf overflow: {11.0}
        assert hist.bucket_counts == [2, 2, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(24.5)

    def test_cumulative_buckets_monotone_and_inf_total(self):
        hist = Histogram(log_buckets(1e-3, 10.0, per_decade=2))
        rng = random.Random(7)
        for _ in range(200):
            hist.observe(rng.uniform(0, 20))
        pairs = hist.cumulative_buckets()
        cumulative = [c for _, c in pairs]
        assert cumulative == sorted(cumulative)
        assert pairs[-1][0] == "+Inf"
        assert pairs[-1][1] == hist.count == 200

    def test_min_max_tracking(self):
        hist = Histogram([1.0])
        hist.observe(0.25)
        hist.observe(4.0)
        assert hist.min == 0.25
        assert hist.max == 4.0


class TestQuantiles:
    def test_empty_histogram(self):
        hist = Histogram(DEFAULT_LATENCY_BUCKETS)
        assert hist.quantile(0.5) is None
        assert hist.percentiles() == {"p50": None, "p95": None, "p99": None}

    def test_single_observation_is_exact(self):
        hist = Histogram(DEFAULT_LATENCY_BUCKETS)
        hist.observe(0.037)
        for q in (0.5, 0.95, 0.99):
            assert hist.quantile(q) == pytest.approx(0.037)

    def test_estimates_close_to_exact(self):
        """Quantile estimates are within one bucket of the true value."""
        boundaries = log_buckets(1e-4, 100.0, per_decade=8)
        hist = Histogram(boundaries)
        rng = random.Random(42)
        values = sorted(rng.lognormvariate(-3, 1.5) for _ in range(5000))
        for value in values:
            hist.observe(value)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = values[int(q * len(values)) - 1]
            estimate = hist.quantile(q)
            # The estimate must land within the bucket containing the
            # exact value: one per_decade=8 step is a factor of ~1.33.
            assert exact / 1.34 <= estimate <= exact * 1.34

    def test_clamped_to_observed_range(self):
        hist = Histogram([1.0, 10.0, 100.0])
        hist.observe(3.0)
        hist.observe(4.0)
        assert hist.quantile(0.01) >= hist.min
        assert hist.quantile(0.999) <= hist.max

    def test_overflow_bucket_reports_max(self):
        hist = Histogram([1.0])
        hist.observe(50.0)
        hist.observe(70.0)
        assert hist.quantile(0.99) == pytest.approx(70.0)


class TestMerge:
    @staticmethod
    def _filled(seed, n=300):
        hist = Histogram(DEFAULT_LATENCY_BUCKETS)
        rng = random.Random(seed)
        for _ in range(n):
            hist.observe(rng.lognormvariate(-4, 2))
        return hist

    def test_merge_equals_combined_observation(self):
        a, b = self._filled(1), self._filled(2)
        combined = Histogram(DEFAULT_LATENCY_BUCKETS)
        rng1, rng2 = random.Random(1), random.Random(2)
        for _ in range(300):
            combined.observe(rng1.lognormvariate(-4, 2))
        for _ in range(300):
            combined.observe(rng2.lognormvariate(-4, 2))
        merged = Histogram(DEFAULT_LATENCY_BUCKETS)
        merged.merge(a)
        merged.merge(b)
        assert merged.bucket_counts == combined.bucket_counts
        assert merged.count == combined.count
        assert merged.sum == pytest.approx(combined.sum)
        assert merged.min == combined.min
        assert merged.max == combined.max

    def test_merge_associative(self):
        a, b, c = self._filled(1), self._filled(2), self._filled(3)

        def merge_pair(x, y):
            out = Histogram(DEFAULT_LATENCY_BUCKETS)
            out.merge(x)
            out.merge(y)
            return out

        left = merge_pair(merge_pair(a, b), c)
        right = merge_pair(a, merge_pair(b, c))
        assert left.bucket_counts == right.bucket_counts
        assert left.count == right.count
        assert left.sum == pytest.approx(right.sum)
        assert left.min == right.min and left.max == right.max

    def test_merge_rejects_mismatched_boundaries(self):
        a = Histogram([1.0, 2.0])
        b = Histogram([1.0, 3.0])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_empty_is_identity(self):
        a = self._filled(5)
        before = list(a.bucket_counts)
        a.merge(Histogram(DEFAULT_LATENCY_BUCKETS))
        assert a.bucket_counts == before

    def test_merge_associative_at_high_counts(self):
        # The load client merges per-outcome shards holding tens of
        # thousands of observations; bucket counts must agree exactly
        # under any fold order (float sums only approximately).
        shards = [self._filled(seed, n=20_000) for seed in range(8)]

        def fold(hists):
            out = Histogram(DEFAULT_LATENCY_BUCKETS)
            for h in hists:
                out.merge(h)
            return out

        left = fold(shards)
        right = fold(list(reversed(shards)))
        interleaved = fold(shards[::2] + shards[1::2])
        assert left.count == right.count == interleaved.count == 160_000
        assert (
            left.bucket_counts
            == right.bucket_counts
            == interleaved.bucket_counts
        )
        assert left.min == right.min == interleaved.min
        assert left.max == right.max == interleaved.max
        assert left.sum == pytest.approx(right.sum, rel=1e-9)
        assert left.sum == pytest.approx(interleaved.sum, rel=1e-9)
        for q in (0.5, 0.95, 0.99):
            assert left.quantile(q) == right.quantile(q)
            assert left.quantile(q) == interleaved.quantile(q)


class TestSingleBucketQuantiles:
    def test_all_mass_in_one_interior_bucket(self):
        # Every observation lands in (1, 10]: all quantiles must come
        # from that bucket and stay clamped to the observed min/max.
        hist = Histogram([1.0, 10.0, 100.0])
        for value in (2.0, 3.0, 5.0, 7.0):
            hist.observe(value)
        for q in (0.01, 0.5, 0.99):
            estimate = hist.quantile(q)
            assert 2.0 <= estimate <= 7.0

    def test_single_boundary_histogram(self):
        # A degenerate two-bucket histogram [<=1, >1] still answers
        # quantiles sanely from either side.
        low = Histogram([1.0])
        for value in (0.2, 0.4, 0.9):
            low.observe(value)
        assert 0.2 <= low.quantile(0.5) <= 0.9
        assert low.quantile(0.99) <= 0.9

        high = Histogram([1.0])
        for value in (3.0, 4.0):
            high.observe(value)
        # Overflow bucket has no upper boundary: the observed max is
        # the only honest answer.
        assert high.quantile(0.5) == pytest.approx(4.0)
        assert high.quantile(0.99) == pytest.approx(4.0)

    def test_repeated_identical_value_is_exact(self):
        hist = Histogram(DEFAULT_LATENCY_BUCKETS)
        for _ in range(1000):
            hist.observe(0.125)
        for q in (0.01, 0.5, 0.99, 0.999):
            assert hist.quantile(q) == pytest.approx(0.125)


class TestReplayAgreement:
    def test_client_and_server_views_agree_on_replayed_log(self):
        # Replay one request log into two independently-sharded
        # HistogramSets: the "client" keys series by algorithm+outcome
        # and observes sequentially; the "server" shards the same
        # latencies across 4 worker histograms in arrival order and
        # merges.  Identical buckets in, identical distributions out —
        # this is the invariant that makes the client-vs-server
        # latency comparison in BENCH_serving.json meaningful.
        rng = random.Random(42)
        log = [
            {
                "latency_s": rng.lognormvariate(-4, 1.5),
                "algorithm": rng.choice(["fm", "kl", "eig1"]),
            }
            for _ in range(5000)
        ]

        client = HistogramSet()
        for entry in log:
            client.observe(
                "request.duration_seconds",
                entry["latency_s"],
                algorithm=entry["algorithm"],
                outcome="ok",
            )

        workers = [HistogramSet() for _ in range(4)]
        for i, entry in enumerate(log):
            workers[i % 4].observe(
                "request.duration_seconds",
                entry["latency_s"],
                algorithm=entry["algorithm"],
            )
        server = Histogram(DEFAULT_LATENCY_BUCKETS)
        for worker in workers:
            merged = worker.merged("request.duration_seconds")
            if merged is not None:
                server.merge(merged)

        client_view = client.merged("request.duration_seconds")
        assert client_view.count == server.count == len(log)
        assert client_view.bucket_counts == server.bucket_counts
        assert client_view.min == server.min
        assert client_view.max == server.max
        assert client_view.sum == pytest.approx(server.sum, rel=1e-9)
        for q in (0.5, 0.95, 0.99):
            assert client_view.quantile(q) == server.quantile(q)

    def test_per_algorithm_slices_agree(self):
        rng = random.Random(7)
        log = [
            (rng.choice(["fm", "kl"]), rng.lognormvariate(-3, 1))
            for _ in range(2000)
        ]
        a, b = HistogramSet(), HistogramSet()
        for algorithm, latency in log:
            a.observe("d", latency, algorithm=algorithm)
        for algorithm, latency in reversed(log):
            b.observe("d", latency, algorithm=algorithm)
        for algorithm in ("fm", "kl"):
            assert (
                a.get("d", algorithm=algorithm).bucket_counts
                == b.get("d", algorithm=algorithm).bucket_counts
            )


class TestHistogramSet:
    def test_labels_key_distinct_series(self):
        hists = HistogramSet()
        hists.observe("x.duration_seconds", 0.1, algorithm="fm")
        hists.observe("x.duration_seconds", 0.2, algorithm="kl")
        hists.observe("x.duration_seconds", 0.3, algorithm="fm")
        snap = hists.snapshot()
        assert len(snap["x.duration_seconds"]) == 2
        by_algo = {
            series["labels"]["algorithm"]: series
            for series in snap["x.duration_seconds"]
        }
        assert by_algo["fm"]["count"] == 2
        assert by_algo["kl"]["count"] == 1

    def test_merged_collapses_labels(self):
        hists = HistogramSet()
        hists.observe("y", 0.1, source="memory")
        hists.observe("y", 0.4, source="disk")
        merged = hists.merged("y")
        assert merged.count == 2
        assert merged.min == pytest.approx(0.1)
        assert merged.max == pytest.approx(0.4)
        assert hists.merged("unknown") is None

    def test_snapshot_is_json_safe_and_sorted(self):
        import json

        hists = HistogramSet()
        hists.observe("b", 1.0)
        hists.observe("a", 2.0, z="1", a="2")
        snap = hists.snapshot()
        assert list(snap) == ["a", "b"]
        json.dumps(snap)  # must not raise


class TestPrometheusRoundTrip:
    @staticmethod
    def _doc():
        hists = HistogramSet()
        hists.observe("service.request.duration_seconds", 0.01,
                      algorithm="fm", source="computed")
        hists.observe("service.request.duration_seconds", 0.3,
                      algorithm="fm", source="memory")
        return {
            "service": {"service.requests": 2, "service.cache.hit": 1},
            "cache": {"memory_hits": 1, "misses": 1, "memory_entries": 1,
                      "memory_used_bytes": 512,
                      "memory_budget_bytes": 1024, "disk_enabled": False},
            "slow": {"threshold_s": 1.0, "capacity": 32, "held": 0,
                     "recorded": 0},
            "histograms": hists.snapshot(),
        }

    def test_render_parses_cleanly(self):
        text = obs.render_prometheus(self._doc())
        samples = obs.parse_prometheus_text(text)
        assert samples["repro_service_requests_total"] == [({}, 2.0)]
        assert samples["repro_cache_memory_entries"] == [({}, 1.0)]
        counts = samples["repro_service_request_duration_seconds_count"]
        assert sum(v for _, v in counts) == 2.0

    def test_histogram_buckets_cumulative_with_inf(self):
        text = obs.render_prometheus(self._doc())
        samples = obs.parse_prometheus_text(text)
        buckets = samples["repro_service_request_duration_seconds_bucket"]
        inf = [
            (labels, v) for labels, v in buckets if labels["le"] == "+Inf"
        ]
        assert len(inf) == 2 and all(v == 1.0 for _, v in inf)

    def test_parser_rejects_missing_type(self):
        with pytest.raises(ValueError, match="TYPE"):
            obs.parse_prometheus_text("untyped_metric 1\n")

    def test_parser_rejects_bad_sample_line(self):
        with pytest.raises(ValueError, match="line 2"):
            obs.parse_prometheus_text(
                "# TYPE x counter\nx{oops 1\n"
            )

    def test_parser_rejects_nonmonotone_histogram(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_count 5\n"
            "h_sum 1\n"
        )
        with pytest.raises(ValueError, match="decreased"):
            obs.parse_prometheus_text(bad)

    def test_parser_rejects_missing_inf_bucket(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            "h_count 5\n"
            "h_sum 1\n"
        )
        with pytest.raises(ValueError, match=r"\+Inf"):
            obs.parse_prometheus_text(bad)

    def test_parser_rejects_inf_count_mismatch(self):
        bad = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_count 5\n"
            "h_sum 1\n"
        )
        with pytest.raises(ValueError, match="_count"):
            obs.parse_prometheus_text(bad)

    def test_inf_value_formatting(self):
        text = obs.render_prometheus(
            {"slow": {"threshold_s": math.inf}}
        )
        assert "repro_slow_requests_threshold_s +Inf" in text
        obs.parse_prometheus_text(text)
