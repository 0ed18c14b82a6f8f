"""SessionStore semantics: LRU capacity, TTL expiry, memory accounting.

Every test injects a fake clock so expiry is deterministic.
"""

import pytest

from repro.hypergraph import Hypergraph
from repro.service.sessions import SessionMissError, SessionStore


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return Clock()


def _h(tag=0):
    return Hypergraph(
        [[0, 1], [1, 2], [0, 2 + (tag % 1)]], num_modules=3
    )


def _payload(sides=(0, 1, 0)):
    return {"sides": list(sides)}


def _store(clock, capacity=3, ttl_s=100.0):
    return SessionStore(capacity=capacity, ttl_s=ttl_s, clock=clock)


class TestBasics:
    def test_put_get_round_trip(self, clock):
        store = _store(clock)
        store.put("fp1", _h(), "req", _payload())
        entry = store.get("fp1")
        assert entry is not None
        assert entry.payloads["req"]["sides"] == [0, 1, 0]

    def test_miss_returns_none(self, clock):
        assert _store(clock).get("ghost") is None

    def test_put_same_fingerprint_merges_request_payloads(self, clock):
        store = _store(clock)
        store.put("fp1", _h(), "ig", _payload())
        store.put("fp1", _h(), "fm", _payload((1, 0, 1)))
        entry = store.get("fp1")
        assert set(entry.payloads) == {"ig", "fm"}
        assert len(store) == 1

    def test_contains_has_no_stats_side_effects(self, clock):
        store = _store(clock)
        store.put("fp1", _h(), "req", _payload())
        assert "fp1" in store
        assert "ghost" not in store
        stats = store.stats_dict()
        assert stats["service.session.hits"] == 0
        assert stats["service.session.misses"] == 0

    def test_bad_capacity_and_ttl_rejected(self, clock):
        with pytest.raises(ValueError):
            SessionStore(capacity=0, clock=clock)
        with pytest.raises(ValueError):
            SessionStore(ttl_s=0, clock=clock)


class TestLRU:
    def test_capacity_evicts_least_recently_used(self, clock):
        store = _store(clock, capacity=2)
        store.put("a", _h(), "r", _payload())
        store.put("b", _h(), "r", _payload())
        store.get("a")  # "b" is now the LRU entry
        store.put("c", _h(), "r", _payload())
        assert "a" in store and "c" in store
        assert "b" not in store
        assert store.stats_dict()["service.session.evictions"] == 1

    def test_put_refresh_does_not_evict(self, clock):
        store = _store(clock, capacity=2)
        store.put("a", _h(), "r", _payload())
        store.put("b", _h(), "r", _payload())
        store.put("a", _h(), "r2", _payload())
        assert len(store) == 2
        assert store.stats_dict()["service.session.evictions"] == 0


class TestTTL:
    def test_expiry_on_get(self, clock):
        store = _store(clock, ttl_s=10.0)
        store.put("a", _h(), "r", _payload())
        clock.advance(10.1)
        assert store.get("a") is None
        stats = store.stats_dict()
        assert stats["service.session.entries"] == 0
        assert stats["service.session.evictions"] == 1

    def test_touch_extends_lifetime(self, clock):
        store = _store(clock, ttl_s=10.0)
        store.put("a", _h(), "r", _payload())
        clock.advance(6.0)
        assert store.get("a") is not None
        clock.advance(6.0)  # 12s after put, 6s after touch
        assert store.get("a") is not None

    def test_sweep_expires_and_reports_live_count(self, clock):
        store = _store(clock, ttl_s=10.0)
        store.put("a", _h(), "r", _payload())
        clock.advance(5.0)
        store.put("b", _h(), "r", _payload())
        clock.advance(6.0)  # "a" is 11s old, "b" 6s
        assert store.sweep() == 1
        assert "b" in store and "a" not in store


class TestAccounting:
    def test_bytes_track_entries(self, clock):
        store = _store(clock)
        assert store.stats_dict()["service.session.bytes"] == 0
        store.put("a", _h(), "r", _payload())
        grown = store.stats_dict()["service.session.bytes"]
        assert grown > 0
        store.put("b", _h(), "r", _payload())
        assert store.stats_dict()["service.session.bytes"] > grown

    def test_bytes_return_after_eviction(self, clock):
        store = _store(clock, capacity=1)
        store.put("a", _h(), "r", _payload())
        only_a = store.stats_dict()["service.session.bytes"]
        store.put("b", _h(), "r", _payload())
        assert store.stats_dict()["service.session.bytes"] == only_a

    def test_hit_miss_counters(self, clock):
        store = _store(clock)
        store.put("a", _h(), "r", _payload())
        store.get("a")
        store.get("a")
        store.get("ghost")
        stats = store.stats_dict()
        assert stats["service.session.hits"] == 2
        assert stats["service.session.misses"] == 1

    def test_stats_keys_are_metric_names(self, clock):
        assert set(_store(clock).stats_dict()) == {
            "service.session.entries",
            "service.session.bytes",
            "service.session.evictions",
            "service.session.hits",
            "service.session.misses",
        }


class TestMissError:
    def test_carries_fingerprint_and_reason(self):
        exc = SessionMissError("abc123", "no live session")
        assert exc.fingerprint == "abc123"
        assert exc.reason == "no live session"
        assert "no live session" in str(exc)
