"""A bounded, content-addressed cache of compiled query plans.

Ferry's avalanche-safety property makes compiled artefacts unusually
cacheable: the shape of a bundle is fixed by the *static* result type of
the program, never by the data, so a bundle compiled once is valid for
every later execution of the same program against any catalog with the
same table schemas (cf. Cheney et al., *Query shredding*, whose shredded
query set is likewise a static artifact prepared once).

:class:`PlanCache` exploits that: it maps a :class:`CacheKey` -- the
program's structural fingerprint plus the catalog's schema generation --
to a :class:`CacheEntry` holding the post-optimization bundle *and* the
per-backend generated code (SQL text, MIL programs, engine schedules),
with LRU eviction at a configurable capacity.  Hits, misses, and
evictions are counted so benchmarks and operators can observe cache
effectiveness.

A cache may be shared by many connections (it is guarded by a lock).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..core.bundle import Bundle


class CacheKey(NamedTuple):
    """Everything the compiled artefact depends on."""

    #: Structural fingerprint of the program (includes the declared
    #: schemas of every referenced table).
    fingerprint: str
    #: The catalog's DDL generation when the plan was compiled; any
    #: CREATE/DROP bumps it, invalidating every prior entry.
    schema_generation: int


@dataclass
class CacheStats:
    """Hit/miss/eviction counters (cumulative over the cache's life)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class CacheEntry:
    """A compiled program: the optimized bundle plus generated code."""

    bundle: Bundle
    #: Per-backend generated artefacts, keyed by ``Backend.name``
    #: ("sqlite" -> SQL text, "mil" -> MIL programs, ...), filled in
    #: lazily the first time each backend executes the bundle.
    codegen: dict[str, Any] = field(default_factory=dict)
    #: Optimizer pass statistics recorded when the plan was compiled.
    pass_stats: Any = None


class PlanCache:
    """Bounded LRU cache from :class:`CacheKey` to :class:`CacheEntry`."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[CacheKey, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def lookup(self, key: CacheKey) -> CacheEntry | None:
        """Return the entry for ``key`` (refreshing its recency), or
        ``None`` -- counting a hit or a miss accordingly."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def insert(self, key: CacheKey, entry: CacheEntry) -> CacheEntry:
        """Store ``entry`` under ``key``, evicting the least recently
        used entry if the cache is full."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return entry

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()
