"""Partitioned execution core.

A partition is an append-only log, the index over it and a cache.  Opening a
partition recovers it from its directory: the index comes from the newest
usable snapshot plus the log behind its cursor, or from the whole log, and
the next LSN is always the one after the log's last.  The engine itself is
synchronous; queueing, batching and replication sit above it (see
replication.py and server.py).
"""

from __future__ import annotations

import gc
import heapq
import os
import zlib
from itertools import islice, repeat
from pathlib import Path

from . import wal
from .art import AdaptiveRadixTree, IndexEntry
from .cache import CacheConfig, TwoStageCache
from .errors import SnapshotCorruptError
from .metrics import Counters
from .wal import KIND_DELETE, KIND_PUT, SegmentStore, TailReport

BATCH_SCAN_FRACTION = 1 / 10  # batch reads above this live-key fraction use a scan

DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


def route(key: bytes, partition_count: int) -> int:
    """Stable hash routing; deterministic across processes and restarts."""
    if partition_count < 1:
        raise ValueError("partition_count must be >= 1")
    return zlib.crc32(key) % partition_count


def snapshot_path(data_dir: Path, partition_id: int, last_lsn: int) -> Path:
    return Path(data_dir) / f"p{partition_id}_snap_{last_lsn}.idx"


def list_snapshots(data_dir: Path, partition_id: int) -> list[tuple[int, Path]]:
    """(last_lsn, path) pairs, newest first. Temp files are ignored."""
    paths = Path(data_dir).glob(f"p{partition_id}_snap_*.idx")
    return sorted(((int(p.stem.rpartition("_")[2]), p) for p in paths), reverse=True)


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
        counters: Counters | None = None,
    ):
        self.partition_id = partition_id
        self.data_dir = Path(data_dir)
        self.counters = counters if counters is not None else Counters()
        self.store = SegmentStore(
            self.data_dir, partition_id, self.counters,
            flush_policy=flush_policy, segment_bytes=segment_bytes,
        )
        self.cache = TwoStageCache(
            CacheConfig(cache_bytes, cooling_fraction), seed=seed ^ partition_id
        )
        # the rebuild allocates an object per index node and entry but makes no
        # cycles, so the cyclic collector's passes over them free nothing and
        # grow with the heap: pause it, then restore the caller's setting
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.tail_report = self._recover()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _recover(self) -> TailReport:
        """Rebuild the index and the LSN frontier from the directory.

        Loads the newest valid snapshot and replays the log behind its
        cursor; falls back to a full log scan when no usable snapshot exists.
        A torn final record is truncated; corruption anywhere else propagates.
        """
        store = self.store
        for _lsn, path in list_snapshots(self.data_dir, self.partition_id):
            try:
                with open(path, "rb") as f:
                    tree, snapshot_lsn, (cur_seg, cur_off) = AdaptiveRadixTree.snapshot_load(f)
            except (SnapshotCorruptError, OSError):
                continue
            cursor_meta = store.segments.get(cur_seg)
            if cursor_meta is not None and cursor_meta.state != wal.STATE_SORTED:
                break
            # the cursor segment is gone (e.g. compacted away after an even
            # newer snapshot was lost); this snapshot cannot anchor a tail
        else:
            # full rebuild: sorted segments first, then every unsorted record
            tree, snapshot_lsn, (cur_seg, cur_off) = AdaptiveRadixTree(), 0, (-1, 0)
            for sid in store.sorted_ids():
                for record, position in store.scan_segment(sid):
                    tree.put(record.key, position, record.lsn)
                    self.counters.records_replayed += 1
        self.index = index = tree

        def replay(record: wal.LogRecord, position: wal.LogPosition) -> None:
            if record.kind == KIND_PUT:
                index.put(record.key, position, record.lsn)
            else:
                index.remove(record.key)

        report = store.replay_tail(replay, start_segment=cur_seg, start_offset=cur_off)
        if report.torn:
            store.truncate_torn_tail(report)
        store.set_last_lsn(max(snapshot_lsn, report.last_valid_lsn))
        return report

    @property
    def next_lsn(self) -> int:
        """The LSN the next local write gets: always the one after the log's last."""
        return self.store.last_lsn + 1

    # -- write path -------------------------------------------------------------

    def apply_put(self, key: bytes, value: bytes, lsn: int | None = None) -> int:
        if lsn is None:
            lsn = self.store.last_lsn + 1
        position = self.store.append(KIND_PUT, key, value, lsn)
        self.index.put(key, position, lsn)
        # update-in-place when cached, never admit on the write path
        if key in self.cache:
            self.cache.admit(key, value, lsn)
        if self.store.should_rotate():
            self.store.seal_and_rotate()
        return lsn

    def apply_delete(self, key: bytes, lsn: int | None = None) -> tuple[int, bool]:
        if lsn is None:
            lsn = self.store.last_lsn + 1
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
            return cached
        entry = self.index.get(key)
        if entry is None:
            return None
        record = self.store.read_at(entry.position)  # exactly one IO
        # under the index's key object, so the cache holds no second copy
        self.cache.admit(entry.key, record.value, entry.version_lsn)
        return record.value

    def value_of(self, entry: IndexEntry) -> bytes:
        """The value an index entry points at: from the cache, else one log read."""
        cached = self.cache.get(entry.key)
        if cached is not None:
            return cached
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
        if self.store.active_meta.data_size > 0:
            self.store.seal_and_rotate()
        sealed = [
            sid for sid, m in self.store.segments.items()
            if m.state == wal.STATE_SEALED_UNSORTED
        ]
        if not sealed:
            return False
        old_sorted = self.store.sorted_ids()
        _meta, remap = self.store.compact_merge(old_sorted, sealed)
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

    def checkpoint(self) -> tuple[Path, int]:
        """Serialize the index, atomically publish it, drop older snapshots.

        The trailer carries the replay cursor (active segment, offset) and the
        log's last LSN, which deleted records count toward, so a reopen
        continues the LSNs even when the log ends in tombstones.  Returns
        (snapshot path, last LSN).
        """
        store = self.store
        store.flush()
        cursor = (store.active_meta.segment_id, store.active_meta.data_size)
        tmp = self.data_dir / f"p{self.partition_id}_snap.tmp"
        with open(tmp, "wb") as f:
            _count, last_lsn = self.index.snapshot_write(
                f, cursor=cursor, last_lsn=store.last_lsn)
            f.flush()
            os.fsync(f.fileno())
            size = f.tell()
        final = snapshot_path(self.data_dir, self.partition_id, last_lsn)
        os.replace(tmp, final)
        self.counters.snapshot_bytes += size
        for _lsn, path in list_snapshots(self.data_dir, self.partition_id):
            if path != final:
                path.unlink(missing_ok=True)
        return final, last_lsn

    def close(self) -> None:
        self.store.close()


class Store:
    """A set of partitions behind stable key routing (single node view).

    Opening a store recovers each partition from its directory, so a
    reopened store serves what it held and continues its LSNs; a new
    directory gives an empty store.
    """

    def __init__(
        self,
        root_dir: Path | str,
        partitions: int = 1,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        cooling_fraction: float = 0.10,
        seed: int = 0,
        flush_policy: str = "group",
        segment_bytes: int = wal.DEFAULT_SEGMENT_BYTES,
    ):
        self.root_dir = Path(root_dir)
        self.counters = Counters()
        self.partitions = [
            Partition(
                pid,
                self.root_dir / f"partition_{pid}",
                cache_bytes=cache_bytes,
                cooling_fraction=cooling_fraction,
                seed=seed,
                flush_policy=flush_policy,
                segment_bytes=segment_bytes,
                counters=self.counters,
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
        """Merge lazy walks of the partitions' indexes and cut them to `limit`,
        so only the entries returned are built and have their values read."""
        walks = [zip(p.index.items_from(start, end), repeat(p)) for p in self.partitions]
        merged = heapq.merge(*walks, key=lambda walk_item: walk_item[0].key)
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
