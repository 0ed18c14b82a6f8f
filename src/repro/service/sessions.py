"""Per-netlist serving sessions for incremental (ECO) partitioning.

A session is everything the engine needs to answer ``POST
/partition/delta`` warm: the exact hypergraph a fingerprint names, and
the result payload served for each request shape on it (the warm paths
read its ``sides`` and ``details.best_rank``, see
:func:`~repro.delta.warm_partition`).  Sessions are held in a
:class:`SessionStore` — an LRU with TTL expiry and always-on memory
accounting (``service.session.{entries,bytes,evictions}`` in
``/metrics``).

Unlike the result cache (content-addressed, disk-spillable, shareable
across processes), sessions hold live Python/numpy state and are
intentionally process-local and bounded: losing one costs a cold
recompute, never a wrong answer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..errors import ReproError
from ..hypergraph import Hypergraph

__all__ = ["SessionEntry", "SessionMissError", "SessionStore"]


class SessionMissError(ReproError):
    """``POST /partition/delta`` named a base with no live session.

    Carries the reason (never seen vs evicted vs expired is
    indistinguishable by design — the store does not remember the
    dead) so the HTTP layer can answer 404 with an actionable message.
    """

    def __init__(self, fingerprint: str, reason: str):
        super().__init__(reason)
        self.fingerprint = fingerprint
        self.reason = reason


def _estimate_hypergraph_bytes(h: Hypergraph) -> int:
    """Rough retained size of a hypergraph (pins dominate)."""
    pins = sum(h.net_sizes())
    # pin tuples appear in both incidence directions; ints are small
    # and shared, so count slot references plus per-net overhead.
    return 16 * 2 * pins + 64 * (h.num_nets + h.num_modules) + 256


@dataclass
class SessionEntry:
    """One live session: the hypergraph plus per-request payloads."""

    hypergraph: Hypergraph
    #: Served payloads keyed by the request's cache-key fields (one
    #: session can serve ig-match and fm deltas independently).
    payloads: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    created_at: float = 0.0
    touched_at: float = 0.0

    def estimated_bytes(self) -> int:
        total = _estimate_hypergraph_bytes(self.hypergraph)
        for payload in self.payloads.values():
            # The sides list dominates a payload.
            total += 256 + 8 * len(payload.get("sides", ()))
        return total


class SessionStore:
    """LRU + TTL store of serving sessions, with memory accounting.

    ``capacity`` bounds live sessions (least-recently-used evicted
    first); ``ttl_s`` expires sessions untouched for that long
    (checked lazily on access and on every :meth:`sweep`).  ``clock``
    is injectable for tests.  All operations are thread-safe.
    """

    def __init__(
        self,
        capacity: int = 16,
        ttl_s: float = 3600.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self.capacity = int(capacity)
        self.ttl_s = float(ttl_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[str, SessionEntry] = {}  # insertion = LRU
        self._bytes = 0
        self._evictions = 0
        self._hits = 0
        self._misses = 0

    # ------------------------------------------------------------------
    def _expire_locked(self, now: float) -> None:
        dead = [
            fp
            for fp, entry in self._entries.items()
            if now - entry.touched_at > self.ttl_s
        ]
        for fp in dead:
            entry = self._entries.pop(fp)
            self._bytes -= entry.estimated_bytes()
            self._evictions += 1

    def _touch_locked(self, fingerprint: str) -> SessionEntry:
        """Move to most-recently-used position (dicts keep order)."""
        entry = self._entries.pop(fingerprint)
        entry.touched_at = self._clock()
        self._entries[fingerprint] = entry
        return entry

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[SessionEntry]:
        """The session for ``fingerprint``, or ``None`` (miss/expired)."""
        with self._lock:
            self._expire_locked(self._clock())
            if fingerprint not in self._entries:
                self._misses += 1
                return None
            self._hits += 1
            return self._touch_locked(fingerprint)

    def put(
        self,
        fingerprint: str,
        h: Hypergraph,
        request_key: str,
        payload: Dict[str, Any],
    ) -> SessionEntry:
        """Install (or refresh) the session for ``fingerprint``.

        An existing session for the same fingerprint gains the new
        request's payload; otherwise a new entry is created, evicting
        the least-recently-used session when over capacity.
        """
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._bytes -= entry.estimated_bytes()
                entry = self._touch_locked(fingerprint)
            else:
                entry = SessionEntry(
                    hypergraph=h, created_at=now, touched_at=now
                )
                self._entries[fingerprint] = entry
            entry.payloads[request_key] = payload
            self._bytes += entry.estimated_bytes()
            while len(self._entries) > self.capacity:
                oldest_fp = next(iter(self._entries))
                oldest = self._entries.pop(oldest_fp)
                self._bytes -= oldest.estimated_bytes()
                self._evictions += 1
            return entry

    def sweep(self) -> int:
        """Expire overdue sessions now; returns the live count."""
        with self._lock:
            self._expire_locked(self._clock())
            return len(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    # ------------------------------------------------------------------
    def stats_dict(self) -> Dict[str, Any]:
        """Always-on gauges/counters, named for the ``/metrics``
        service section (``service.session.entries`` and
        ``service.session.bytes`` are gauges; the rest counters)."""
        with self._lock:
            return {
                "service.session.entries": len(self._entries),
                "service.session.bytes": max(0, self._bytes),
                "service.session.evictions": self._evictions,
                "service.session.hits": self._hits,
                "service.session.misses": self._misses,
            }
