"""Record-granularity read cache: hot region + FIFO cooling region.

Second-chance policy with no per-access bookkeeping: a hit on a hot entry
touches nothing but the hit counter.  When the pool overflows, a uniformly
random hot entry is demoted to the cooling FIFO; entries that reach the FIFO
head without being touched are evicted, and any access to a cooling entry
promotes it back to hot.

An entry is only its key and value, held in its region's dict: the hot dict
plus a dense list of hot keys for the uniform draw, or the cooling
`OrderedDict`.  A key invalidated while hot keeps its slot in that list as a
stale slot, which a draw drops; the list is rebuilt from the hot dict once
stale slots outnumber live ones.  (A key admitted again before its stale slot
goes holds two slots until one is drawn.)  The pool keeps no version: a
partition's single thread admits only the index's current one.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass

ENTRY_OVERHEAD = 64  # fixed per-entry accounting overhead, bytes


def _size(key: bytes, value: bytes) -> int:
    return len(key) + len(value) + ENTRY_OVERHEAD


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
        self._hot: dict[bytes, bytes] = {}
        self._hot_keys: list[bytes] = []  # draw array, swap-remove; may hold stale slots
        self._cooling: OrderedDict[bytes, bytes] = OrderedDict()
        self.resident_bytes = 0
        self.cooling_bytes = 0
        self.hits = 0
        self.misses = 0

    def __contains__(self, key: bytes) -> bool:
        return key in self._hot or key in self._cooling

    def get(self, key: bytes) -> bytes | None:
        value = self._hot.get(key)
        if value is not None:
            self.hits += 1
            return value
        value = self._cooling.pop(key, None)
        if value is None:
            self.misses += 1
            return None
        # second chance: the access makes it hot again
        self.hits += 1
        self.cooling_bytes -= _size(key, value)
        self._hot[key] = value
        self._hot_keys.append(key)
        return value

    def admit(self, key: bytes, value: bytes, version_lsn: int = 0) -> list[bytes]:
        """Insert or refresh; returns evicted keys.

        `version_lsn` is not kept (see the module docstring).  A value too
        large for the pool is not admitted, drops any resident value of its
        key, and is reported as its own eviction.
        """
        size = _size(key, value)
        if size > self.capacity_bytes:
            self.invalidate(key)
            return [key]
        old = self._hot.get(key)
        if old is None:
            old = self._cooling.pop(key, None)
            if old is not None:
                self.cooling_bytes -= _size(key, old)
            self._hot_keys.append(key)
        if old is not None:
            self.resident_bytes -= _size(key, old)
        self._hot[key] = value
        self.resident_bytes += size

        evicted: list[bytes] = []
        while self.resident_bytes > self.capacity_bytes:
            if self.cooling_bytes > self.cooling_capacity or not self._hot:
                evicted.append(self._evict_head())
            else:
                self._demote_random()
        return evicted

    def invalidate(self, key: bytes) -> bool:
        value = self._hot.pop(key, None)
        if value is None:
            value = self._cooling.pop(key, None)
            if value is None:
                return False
            self.cooling_bytes -= _size(key, value)
        self.resident_bytes -= _size(key, value)
        self._compact_hot_keys()
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

    def _compact_hot_keys(self) -> None:
        if len(self._hot_keys) > 2 * len(self._hot):  # stale slots outnumber live ones
            self._hot_keys = list(self._hot)

    def _demote_random(self) -> None:
        """Move a uniformly drawn hot entry to the cooling tail."""
        self._compact_hot_keys()
        keys = self._hot_keys
        while True:
            idx = self._rng.randrange(len(keys))
            key = keys[idx]
            last = keys.pop()
            if idx < len(keys):
                keys[idx] = last
            value = self._hot.pop(key, None)
            if value is not None:  # else a stale slot, now dropped
                break
        self._cooling[key] = value
        self.cooling_bytes += _size(key, value)

    def _evict_head(self) -> bytes:
        # only reached with a non-empty cooling region: the loop in `admit`
        # evicts when cooling is over its share or hot is empty
        key, value = self._cooling.popitem(last=False)
        size = _size(key, value)
        self.cooling_bytes -= size
        self.resident_bytes -= size
        return key


class LruCache:
    """Reference baseline for the cache tests; same surface as TwoStageCache."""

    name = "lru"
    _move_on_hit = True

    def __init__(self, config: CacheConfig, seed: int = 0):
        self.capacity_bytes = config.capacity_bytes
        self._entries: OrderedDict[bytes, bytes] = OrderedDict()
        self.resident_bytes = 0
        self.hits = 0
        self.misses = 0

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def get(self, key: bytes) -> bytes | None:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        if self._move_on_hit:
            self._entries.move_to_end(key)
        return value

    def admit(self, key: bytes, value: bytes, version_lsn: int = 0) -> list[bytes]:
        size = _size(key, value)
        if size > self.capacity_bytes:
            self.invalidate(key)
            return [key]
        old = self._entries.get(key)
        if old is not None:
            self.resident_bytes -= _size(key, old)
            if self._move_on_hit:
                self._entries.move_to_end(key)
        self._entries[key] = value
        self.resident_bytes += size
        evicted = []
        while self.resident_bytes > self.capacity_bytes:
            k, v = self._entries.popitem(last=False)
            self.resident_bytes -= _size(k, v)
            evicted.append(k)
        return evicted

    def invalidate(self, key: bytes) -> bool:
        value = self._entries.pop(key, None)
        if value is None:
            return False
        self.resident_bytes -= _size(key, value)
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
