"""Record-granularity read cache: hot region + FIFO cooling region.

Second-chance policy with no per-access bookkeeping: a hit on a hot entry
touches nothing but the hit counter.  When the pool overflows, a uniformly
random hot entry is demoted to the cooling FIFO; entries that reach the FIFO
head without being touched are evicted, and any access to a cooling entry
promotes it back to hot.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass

ENTRY_OVERHEAD = 64  # fixed per-entry accounting overhead, bytes

REGION_HOT = "hot"
REGION_COOLING = "cooling"


class CacheEntry:
    __slots__ = ("key", "value", "version_lsn", "region", "hot_idx")

    def __init__(self, key: bytes, value: bytes, version_lsn: int):
        self.key = key
        self.value = value
        self.version_lsn = version_lsn
        self.region = REGION_HOT
        self.hot_idx = -1

    def size(self) -> int:
        return len(self.key) + len(self.value) + ENTRY_OVERHEAD


@dataclass
class CacheConfig:
    capacity_bytes: int
    cooling_fraction: float = 0.10

    def __post_init__(self):
        if not (0.0 < self.cooling_fraction < 1.0):
            raise ValueError("cooling_fraction must be in (0, 1)")


class TwoStageCache:
    """The production policy."""

    name = "twostage"

    def __init__(self, config: CacheConfig, seed: int = 0):
        self.config = config
        self.capacity_bytes = config.capacity_bytes
        self.cooling_capacity = int(config.capacity_bytes * config.cooling_fraction)
        self._rng = random.Random(seed)
        self._entries: dict[bytes, CacheEntry] = {}
        self._hot: list[CacheEntry] = []          # dense array, swap-remove
        self._cooling: OrderedDict[bytes, CacheEntry] = OrderedDict()
        self.resident_bytes = 0
        self.cooling_bytes = 0
        self.hits = 0
        self.misses = 0

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def get(self, key: bytes) -> tuple[bytes, int] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if entry.region == REGION_COOLING:
            # second chance: the access makes it hot again
            del self._cooling[key]
            self.cooling_bytes -= entry.size()
            self._push_hot(entry)
        return entry.value, entry.version_lsn

    def admit(self, key: bytes, value: bytes, version_lsn: int) -> list[bytes]:
        """Insert or refresh; returns evicted keys.

        A version older than the resident one is ignored, so the cache never
        travels backwards.  A value too large for the pool is not admitted
        and is reported as its own eviction.
        """
        size = len(key) + len(value) + ENTRY_OVERHEAD
        if size > self.capacity_bytes:
            return [key]
        entry = self._entries.get(key)
        if entry is not None:
            if version_lsn < entry.version_lsn:
                return []
            self._detach(entry)
            self.resident_bytes -= entry.size()
            entry.value = value
            entry.version_lsn = version_lsn
        else:
            entry = CacheEntry(key, value, version_lsn)
            self._entries[key] = entry
        self._push_hot(entry)
        self.resident_bytes += entry.size()

        evicted: list[bytes] = []
        while self.resident_bytes > self.capacity_bytes and self._entries:
            if not self._hot or self.cooling_bytes > self.cooling_capacity:
                evicted.append(self._evict_head())
            else:
                self._demote_random()
        return evicted

    def invalidate(self, key: bytes) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._detach(entry)
        self.resident_bytes -= entry.size()
        return True

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hits / total if total else 0.0,
            "resident_bytes": self.resident_bytes,
            "hot_count": len(self._hot),
            "cooling_count": len(self._cooling),
        }

    # -- internals -----------------------------------------------------------

    def _push_hot(self, entry: CacheEntry) -> None:
        entry.region = REGION_HOT
        entry.hot_idx = len(self._hot)
        self._hot.append(entry)

    def _remove_hot(self, entry: CacheEntry) -> None:
        idx = entry.hot_idx
        last = self._hot.pop()
        if last is not entry:
            self._hot[idx] = last
            last.hot_idx = idx
        entry.hot_idx = -1

    def _detach(self, entry: CacheEntry) -> None:
        if entry.region == REGION_HOT:
            self._remove_hot(entry)
        else:
            del self._cooling[entry.key]
            self.cooling_bytes -= entry.size()

    def _demote_random(self) -> None:
        idx = self._rng.randrange(len(self._hot))
        entry = self._hot[idx]
        self._remove_hot(entry)
        entry.region = REGION_COOLING
        self._cooling[entry.key] = entry
        self.cooling_bytes += entry.size()

    def _evict_head(self) -> bytes:
        if self._cooling:
            key, entry = self._cooling.popitem(last=False)
            self.cooling_bytes -= entry.size()
        else:
            entry = self._hot[self._rng.randrange(len(self._hot))]
            self._remove_hot(entry)
            key = entry.key
        del self._entries[key]
        self.resident_bytes -= entry.size()
        return key


class LruCache:
    """Reference baseline for the cache tests; same surface as TwoStageCache."""

    name = "lru"
    _move_on_hit = True

    def __init__(self, config: CacheConfig, seed: int = 0):
        self.capacity_bytes = config.capacity_bytes
        self._entries: OrderedDict[bytes, CacheEntry] = OrderedDict()
        self.resident_bytes = 0
        self.hits = 0
        self.misses = 0

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def get(self, key: bytes):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        if self._move_on_hit:
            self._entries.move_to_end(key)
        return entry.value, entry.version_lsn

    def admit(self, key: bytes, value: bytes, version_lsn: int) -> list[bytes]:
        size = len(key) + len(value) + ENTRY_OVERHEAD
        if size > self.capacity_bytes:
            return [key]
        entry = self._entries.get(key)
        if entry is not None:
            if version_lsn < entry.version_lsn:
                return []
            self.resident_bytes -= entry.size()
            entry.value = value
            entry.version_lsn = version_lsn
            if self._move_on_hit:
                self._entries.move_to_end(key)
        else:
            entry = CacheEntry(key, value, version_lsn)
            self._entries[key] = entry
        self.resident_bytes += entry.size()
        evicted = []
        while self.resident_bytes > self.capacity_bytes and self._entries:
            k, e = self._entries.popitem(last=False)
            self.resident_bytes -= e.size()
            evicted.append(k)
        return evicted

    def invalidate(self, key: bytes) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.resident_bytes -= entry.size()
        return True

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hits / total if total else 0.0,
            "resident_bytes": self.resident_bytes,
            "hot_count": len(self._entries),
            "cooling_count": 0,
        }


class FifoCache(LruCache):
    """Reference baseline for the cache tests: eviction in pure insertion order."""

    name = "fifo"
    _move_on_hit = False
