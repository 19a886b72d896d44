"""The VM's software-managed code cache, and the process's one LRU.

"Optimized control is then placed in a software managed code cache, and
the original code is modified to send a code cache pointer to the LA"
(Section 4.2).  The evaluation used space for "the previous 16
translated loops using an LRU eviction policy ... approximately 48 KB of
dedicated storage" with hit rates "very close to 100%" (Section 4.3).
Every other in-process cache that grows with the loops seen is a
:class:`CodeCache` too (DESIGN.md §7 lists them).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Generic, Hashable, Optional, TypeVar

from repro import obs

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: A lookup default that tells a stored ``None`` from a miss.
MISS = object()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0


class CodeCache(Generic[K, V]):
    """LRU map of at most ``capacity`` entries, one lock for every
    operation.  An eviction counts in ``stats`` and the obs *counter*,
    and calls *on_evict(key)* so the caller can unlink the key from an
    index of its own; ``clear`` keeps the stats."""

    def __init__(self, capacity: int = 16, counter: Optional[str] = None,
                 on_evict: Optional[Callable[[K], None]] = None) -> None:
        if capacity < 1:
            raise ValueError("code cache needs at least one entry")
        self.capacity = capacity
        self.counter = counter
        self.on_evict = on_evict
        self.stats = CacheStats()
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, key: K, default=None):
        """Fetch *key*, updating recency and hit/miss accounting."""
        with self._lock:
            value = self._entries.get(key, MISS)
            if value is MISS:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def peek(self, key: K, default=None):
        """Fetch *key* with no accounting and no change of recency."""
        with self._lock:
            return self._entries.get(key, default)

    def insert(self, key: K, value: V) -> None:
        """Install a value as most recent, evicting past ``capacity``."""
        with self._lock:
            entries = self._entries
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            while len(entries) > self.capacity:
                old, _ = entries.popitem(last=False)
                self.stats.evictions += 1
                if self.counter is not None:
                    obs.inc(self.counter)
                if self.on_evict is not None:
                    self.on_evict(old)

    def invalidate(self, key: K) -> bool:
        """Deoptimization support: drop *key* regardless of recency.

        Returns True when an entry was actually removed.  Invalidations
        are counted separately from capacity evictions so the guard's
        deoptimization traffic is visible in the stats.
        """
        with self._lock:
            if self._entries.pop(key, MISS) is MISS:
                return False
            self.stats.invalidations += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list[K]:
        """Current keys, LRU first (for tests and diagnostics)."""
        with self._lock:
            return list(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)
