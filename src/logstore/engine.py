"""Partitioned execution core.

One executor owns each partition: all mutations of a partition's log, index
and cache happen on that owner (enforced by an optional thread check).  The
engine itself is synchronous; queueing, batching and replication sit above it
(see replication.py and server.py).
"""

from __future__ import annotations

import heapq
import threading
import zlib
from itertools import islice
from pathlib import Path

from . import wal
from .art import AdaptiveRadixTree, IndexEntry
from .cache import CacheConfig, TwoStageCache
from .errors import LogStoreError
from .metrics import Counters
from .wal import KIND_DELETE, KIND_PUT, LogPosition, SegmentStore

BATCH_SCAN_FRACTION = 1 / 10  # batch reads above this live-key fraction use a scan

DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


def route(key: bytes, partition_count: int) -> int:
    """Stable hash routing; deterministic across processes and restarts."""
    if partition_count < 1:
        raise ValueError("partition_count must be >= 1")
    return zlib.crc32(key) % partition_count


class Partition:
    """Log + index + cache of one partition, owned by a single executor."""

    def __init__(
        self,
        partition_id: int,
        data_dir: Path | str,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        cooling_fraction: float = 0.10,
        seed: int = 0,
        flush_policy: str = "group",
        segment_bytes: int = wal.DEFAULT_SEGMENT_BYTES,
        check_owner: bool = False,
        counters: Counters | None = None,
    ):
        self.partition_id = partition_id
        self.data_dir = Path(data_dir)
        self.counters = counters if counters is not None else Counters()
        self.store = SegmentStore(
            self.data_dir, partition_id, self.counters,
            flush_policy=flush_policy, segment_bytes=segment_bytes,
        )
        self.index = AdaptiveRadixTree()
        self.cache = TwoStageCache(
            CacheConfig(cache_bytes, cooling_fraction), seed=seed ^ partition_id
        )
        self.next_lsn = self.store.last_lsn + 1
        self._check_owner = check_owner
        self._owner: int | None = None

    # -- ownership ------------------------------------------------------------

    def _assert_owner(self) -> None:
        if not self._check_owner:
            return
        me = threading.get_ident()
        if self._owner is None:
            self._owner = me
        elif self._owner != me:
            raise LogStoreError(
                f"partition {self.partition_id} touched by two threads"
            )

    def adopt_owner(self) -> None:
        """Transfer ownership to the calling thread (executor start/failover)."""
        self._owner = threading.get_ident()

    # -- write path -------------------------------------------------------------

    def assign_lsn(self) -> int:
        lsn = self.next_lsn
        self.next_lsn += 1
        return lsn

    def apply_put(self, key: bytes, value: bytes, lsn: int | None = None) -> int:
        self._assert_owner()
        if lsn is None:
            lsn = self.assign_lsn()
        else:
            self.next_lsn = max(self.next_lsn, lsn + 1)
        position = self.store.append(KIND_PUT, key, value, lsn)
        self.index.put(key, position, lsn)
        # update-in-place when cached, never admit on the write path
        if key in self.cache:
            self.cache.admit(key, value, lsn)
        if self.store.should_rotate():
            self.store.seal_and_rotate()
        return lsn

    def apply_delete(self, key: bytes, lsn: int | None = None) -> tuple[int, bool]:
        self._assert_owner()
        if lsn is None:
            lsn = self.assign_lsn()
        else:
            self.next_lsn = max(self.next_lsn, lsn + 1)
        self.cache.invalidate(key)
        removed = self.index.remove(key)
        # tombstone is written even for an absent key: replicas and recovery
        # must see the same record sequence
        self.store.append(KIND_DELETE, key, b"", lsn)
        if self.store.should_rotate():
            self.store.seal_and_rotate()
        return lsn, removed is not None

    def apply_record(self, record: wal.LogRecord) -> None:
        """Follower/replay path: apply a record that already carries its LSN."""
        if record.kind == KIND_PUT:
            self.apply_put(record.key, record.value, record.lsn)
        else:
            self.apply_delete(record.key, record.lsn)

    def flush(self) -> None:
        self.store.flush()

    # -- read path ----------------------------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        cached = self.cache.get(key)
        if cached is not None:
            return cached[0]
        entry = self.index.get(key)
        if entry is None:
            return None
        record = self.store.read_at(entry.position)  # exactly one IO
        self.cache.admit(key, record.value, entry.version_lsn)
        return record.value

    def range(self, start: bytes, end: bytes, limit: int | None = None) -> list[tuple[bytes, bytes]]:
        return [(entry.key, self.value_of(entry))
                for entry in self.index.range(start, end, limit)]

    def value_of(self, entry: IndexEntry) -> bytes:
        """The value an index entry points at: from the cache, else one log read."""
        cached = self.cache.get(entry.key)
        if cached is not None:
            return cached[0]
        record = self.store.read_at(entry.position)
        self.cache.admit(entry.key, record.value, entry.version_lsn)
        return record.value

    def batch_get(self, keys: list[bytes]) -> list[tuple[bytes, bytes | None]]:
        """Point lookups for small batches, one sequential scan for large ones."""
        unique = list(dict.fromkeys(keys))
        live = self.index.size
        if live > 0 and len(unique) / live > BATCH_SCAN_FRACTION:
            return self._batch_get_scan(unique)
        return [(k, self.get(k)) for k in unique]

    def _batch_get_scan(self, keys: list[bytes]) -> list[tuple[bytes, bytes | None]]:
        wanted = set(keys)
        best: dict[bytes, wal.LogRecord] = {}
        for record, _pos in self.store.scan_all():
            if record.key in wanted:
                cur = best.get(record.key)
                if cur is None or record.lsn > cur.lsn:
                    best[record.key] = record
        out = []
        for key in keys:
            record = best.get(key)
            if record is None or record.kind == KIND_DELETE:
                out.append((key, None))
            else:
                out.append((key, record.value))
        return out

    # -- maintenance ------------------------------------------------------------

    def compact(self) -> bool:
        """Merge all sealed segments into one sorted segment.

        The remap is applied to the index, a checkpoint is written so the new
        snapshot covers the sorted output, and only then are the inputs
        deleted.  Returns False when there was nothing to do.
        """
        self._assert_owner()
        if self.store.active_meta.data_size > 0:
            self.store.seal_and_rotate()
        sealed = [
            sid for sid, m in self.store.segments.items()
            if m.state == wal.STATE_SEALED_UNSORTED
        ]
        if not sealed:
            return False
        old_sorted = self.store.sorted_ids()
        _meta, remap, _covered = self.store.compact_merge(old_sorted, sealed)
        for key, (position, lsn) in remap.items():
            self.index.reposition(key, position, lsn)
        self.checkpoint()
        self.store.remove_segments(old_sorted + sealed)
        return True

    def maybe_compact(self) -> bool:
        """Trigger rule: sealed-unsorted bytes exceed half the sorted bytes."""
        sealed = sorted_bytes = 0
        for m in self.store.segments.values():
            if m.state == wal.STATE_SEALED_UNSORTED:
                sealed += m.data_size
            elif m.state == wal.STATE_SORTED:
                sorted_bytes += m.data_size
        if sealed and sealed > sorted_bytes * 0.5:
            return self.compact()
        return False

    def checkpoint(self):
        from . import recovery

        return recovery.write_checkpoint(self)

    def close(self) -> None:
        self.store.close()


class Store:
    """A set of partitions behind stable key routing (single node view)."""

    def __init__(
        self,
        root_dir: Path | str,
        partitions: int = 1,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        cooling_fraction: float = 0.10,
        seed: int = 0,
        flush_policy: str = "group",
        segment_bytes: int = wal.DEFAULT_SEGMENT_BYTES,
        check_owner: bool = False,
    ):
        self.root_dir = Path(root_dir)
        self.counters = Counters()
        self.partitions = [
            Partition(
                pid,
                self.root_dir / f"partition_{pid}",
                counters=self.counters,
                cache_bytes=cache_bytes,
                cooling_fraction=cooling_fraction,
                seed=seed,
                flush_policy=flush_policy,
                segment_bytes=segment_bytes,
                check_owner=check_owner,
            )
            for pid in range(partitions)
        ]

    def partition_for(self, key: bytes) -> Partition:
        return self.partitions[route(key, len(self.partitions))]

    def put(self, key: bytes, value: bytes) -> tuple[int, int]:
        p = self.partition_for(key)
        lsn = p.apply_put(key, value)
        p.flush()
        return p.partition_id, lsn

    def delete(self, key: bytes) -> bool:
        p = self.partition_for(key)
        _, existed = p.apply_delete(key)
        p.flush()
        return existed

    def get(self, key: bytes) -> bytes | None:
        return self.partition_for(key).get(key)

    def range(self, start: bytes, end: bytes, limit: int | None = None) -> list[tuple[bytes, bytes]]:
        """Merge the partitions' index entries first and cut them to `limit`,
        so only the entries returned have their values read."""
        runs = [[(entry, p) for entry in p.index.range(start, end, limit)]
                for p in self.partitions]
        merged = heapq.merge(*runs, key=lambda run_item: run_item[0].key)
        return [(entry.key, p.value_of(entry)) for entry, p in islice(merged, limit)]

    def batch_get(self, keys: list[bytes]) -> list[tuple[bytes, bytes | None]]:
        by_partition: dict[int, list[bytes]] = {}
        for key in dict.fromkeys(keys):
            by_partition.setdefault(route(key, len(self.partitions)), []).append(key)
        found: dict[bytes, bytes | None] = {}
        for pid, group in by_partition.items():
            for key, value in self.partitions[pid].batch_get(group):
                found[key] = value
        return [(k, found[k]) for k in keys]

    def compact(self) -> None:
        for p in self.partitions:
            p.compact()

    def checkpoint(self) -> None:
        for p in self.partitions:
            p.checkpoint()

    def close(self) -> None:
        for p in self.partitions:
            p.close()
