"""The live I/O-node buffer cache.

Only the I/O nodes cache in CFS.  This is the *online* cache embedded in
the functional file system (every read/write passes through it and its
hit statistics accumulate).  It is its own ``OrderedDict`` LRU over
``(file, block)`` keys, with write-through counting and per-file
invalidation; it does not use :mod:`repro.caching.policies`.  The
*offline* trace-driven simulators the paper's Figures 8-9 are built from
live in :mod:`repro.caching`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import CacheConfigError


@dataclass(slots=True)
class CacheStats:
    """Running hit/miss counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writes_through: int = 0

    @property
    def accesses(self) -> int:
        """Total block accesses observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from the cache (0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Combine counters from two caches (e.g. across I/O nodes)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            writes_through=self.writes_through + other.writes_through,
        )


class BlockCache:
    """An LRU cache of (file, block) keys with write-through semantics.

    ``capacity`` is a buffer count (each buffer holds one 4 KB block).
    Data bytes are not stored here — the functional file system keeps the
    bytes; the cache tracks *presence*, which is what hit statistics and
    the paper's simulations are about.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise CacheConfigError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._lru: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._lru

    def access(self, file: int, block: int, is_write: bool = False) -> bool:
        """Touch one block; returns True on a hit.

        Writes go through to disk but install/refresh the block (CFS I/O
        nodes buffered writes as well as reads).
        """
        if self.capacity == 0:
            self.stats.misses += 1
            if is_write:
                self.stats.writes_through += 1
            return False
        key = (file, block)
        hit = key in self._lru
        if hit:
            self._lru.move_to_end(key)
            self.stats.hits += 1
        else:
            self.stats.misses += 1
            self._lru[key] = None
            if len(self._lru) > self.capacity:
                self._lru.popitem(last=False)
                self.stats.evictions += 1
        if is_write:
            self.stats.writes_through += 1
        return hit

    def invalidate_file(self, file: int) -> int:
        """Drop every cached block of one file (on delete); returns count."""
        doomed = [key for key in self._lru if key[0] == file]
        for key in doomed:
            del self._lru[key]
        return len(doomed)

    def resident_blocks(self) -> list[tuple[int, int]]:
        """Current contents, least- to most-recently used."""
        return list(self._lru.keys())
