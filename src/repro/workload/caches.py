"""Mesoscale cache models: LRU hit/miss accounting without packets.

``repro.cdn.cache_server.CacheServer`` simulates the GET protocol; at
10^6+ queries the engine only needs the cache *policy's* behaviour —
did this object's rank hit, and what got evicted.  :class:`RankLru`
is that reduction: an LRU set over content ranks with exact hit/miss
counters, O(1) per lookup, built on dict insertion order (the same
trick ``repro.cdn.policy.LruPolicy`` uses under its interface).
"""

from __future__ import annotations

from typing import Dict


class RankLru:
    """An object-count LRU cache over integer content ranks."""

    __slots__ = ("capacity", "hits", "misses", "_entries")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        #: Insertion-ordered; the first key is always least recent.
        self._entries: Dict[int, None] = {}

    def lookup(self, rank: int) -> bool:
        """Serve one request for ``rank``; True on hit.

        A miss admits the object (origin fill), evicting the least
        recently used entry when full.
        """
        entries = self._entries
        if rank in entries:
            self.hits += 1
            del entries[rank]      # refresh recency: move to the back
            entries[rank] = None
            return True
        self.misses += 1
        if len(entries) >= self.capacity:
            del entries[next(iter(entries))]
        entries[rank] = None
        return False

    def __repr__(self) -> str:
        return (f"RankLru(cap={self.capacity}, n={len(self._entries)}, "
                f"hits={self.hits}, misses={self.misses})")
