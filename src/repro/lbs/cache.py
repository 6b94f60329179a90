"""Per-interface LRU cache of kNN answers, keyed on snapped locations.

A static LBS always returns the same answer at the same point, and the
estimators revisit locations constantly — Theorem-1 vertex tests, probe
replays, localization refinements.  Real clients cache such answers, and
the paper counts only *network* queries against the budget (§2.1), so a
cache hit legitimately costs nothing.

Keys snap query coordinates to a fixed grid pitch.  The default pitch is
EPS-scale relative to the service region: far finer than any meaningful
location difference, so two distinct random queries never collide, but
coarse enough that float noise on a revisited location still hits.  Each
interface owns its own cache — a ``filtered()`` view answers from a
different database, so sharing the parent's entries would serve stale
results (see ``tests/lbs/test_query_cache.py``).
"""

from __future__ import annotations

from collections import OrderedDict

from ..obs import registry as _obs

__all__ = ["QueryAnswerCache"]

#: Snap pitch as a fraction of the region's longer side.
_DEFAULT_RELATIVE_PITCH = 1e-9

Key = tuple[int, int]


class QueryAnswerCache:
    """Bounded LRU map from snapped query locations to answers."""

    __slots__ = ("capacity", "resolution", "hits", "misses", "_entries")

    def __init__(self, capacity: int, resolution: float):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if resolution <= 0.0:
            raise ValueError("resolution must be positive")
        self.capacity = capacity
        self.resolution = resolution
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[Key, object] = OrderedDict()

    @staticmethod
    def resolution_for(width: float, height: float) -> float:
        """The default snap pitch for a service region of this size."""
        return _DEFAULT_RELATIVE_PITCH * max(width, height, 1.0)

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, x: float, y: float) -> Key:
        return (round(x / self.resolution), round(y / self.resolution))

    def get(self, key: Key):
        """The cached answer, refreshed as most-recently-used, or None."""
        if self.capacity == 0:
            return None
        answer = self._entries.get(key)
        reg = _obs._active
        if answer is None:
            self.misses += 1
            if reg is not None:
                reg.inc("interface_cache_misses_total")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if reg is not None:
            reg.inc("interface_cache_hits_total")
        return answer

    def peek(self, key: Key):
        """Like :meth:`get` but without touching LRU order or counters."""
        if self.capacity == 0:
            return None
        return self._entries.get(key)

    def put(self, key: Key, answer) -> None:
        if self.capacity == 0:
            return
        self._entries[key] = answer
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def entries(self) -> list:
        """Cached answers in LRU order (oldest first) — replaying them
        through :meth:`put` reproduces this cache's content *and*
        eviction order, which checkpoint restore relies on."""
        return list(self._entries.values())

    def counters(self) -> dict:
        """Instance-lifetime hit/miss counters (and size/capacity).

        The same counts stream to the process-wide registry as
        ``interface_cache_hits_total`` / ``interface_cache_misses_total``
        when :mod:`repro.obs` is enabled.
        """
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryAnswerCache(size={len(self._entries)}, capacity={self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
