"""A bounded, thread-safe LRU cache with hit/miss/eviction counters.

The serving layer keeps two classes of compiled artifacts warm — per-model
trie-compiled joiners and per-target-column packed
:class:`~repro.matching.index.ValueIndex` objects — and both must be bounded
(a long-lived server cannot grow with every distinct target column it has
ever seen) and observable (``GET /stats`` reports hit ratios, and the
warm-vs-cold benchmark asserts the hit path is cheaper).  One small primitive
serves both: an ``OrderedDict``-backed LRU guarded by a lock, counting hits,
misses and evictions.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable


class LRUCache:
    """Least-recently-used mapping bounded to *capacity* entries.

    ``get_or_build(key, build)`` is the serving fast path: a hit moves the
    entry to the back and returns it; a miss calls *build()* and inserts the
    result, evicting the least-recently-used entry when the cache is full.
    The build runs under the cache lock, so concurrent requests for the same
    key build the artifact exactly once — the second request blocks briefly
    and then hits.  (Builds here are trie compiles and index builds:
    milliseconds, and running them once is the point of the cache.)
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_build(
        self,
        key: Hashable,
        build: Callable[[], Any],
        *,
        stored_key: Callable[[Hashable, Any], Hashable] | None = None,
    ) -> tuple[Any, bool]:
        """Return ``(value, hit)`` for *key*, building and caching on a miss.

        *stored_key*, if given, maps *key* and the built value to an equal
        key that is cheaper to keep; a miss stores the entry under it, so
        lookups that hit never pay for the conversion.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key], True
            self._misses += 1
            value = build()
            if stored_key is not None:
                key = stored_key(key, value)
            self._entries[key] = value
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return value, False

    def invalidate(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies *predicate*; returns the count.

        Used on model reload: entries keyed by a stale ``(name, file key)``
        must not survive the artifact swap.  Invalidations are not counted
        as evictions — they are correctness drops, not capacity pressure.
        """
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def stats(self) -> dict:
        """Counters snapshot: size, capacity, hits, misses, evictions."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "size": len(self._entries),
                "capacity": self._capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_ratio": (self._hits / total) if total else 0.0,
            }


__all__ = ["LRUCache"]
