"""Snapshot-based recovery.

A checkpoint serializes the in-memory index (with the current log cursor in
the trailer); restart loads the newest valid snapshot and replays only the
log written after that cursor — index maintenance only, no data redo.
"""

from __future__ import annotations

import gc
import os
import re
from pathlib import Path

from . import wal
from .art import AdaptiveRadixTree
from .engine import Partition, Store
from .errors import SnapshotCorruptError
from .wal import KIND_PUT, TailReport

_SNAP_RE = re.compile(r"^p(\d+)_snap_(\d+)\.idx$")


def snapshot_path(data_dir: Path, partition_id: int, last_included_lsn: int) -> Path:
    return Path(data_dir) / f"p{partition_id}_snap_{last_included_lsn}.idx"


def list_snapshots(data_dir: Path, partition_id: int) -> list[tuple[int, Path]]:
    """(last_included_lsn, path) pairs, newest first. Temp files are ignored."""
    out = []
    data_dir = Path(data_dir)
    if not data_dir.exists():
        return out
    for p in data_dir.iterdir():
        m = _SNAP_RE.match(p.name)
        if m and int(m.group(1)) == partition_id:
            out.append((int(m.group(2)), p))
    out.sort(reverse=True)
    return out


def write_checkpoint(partition: Partition) -> tuple[Path, int]:
    """Serialize the index, atomically publish it, drop older snapshots."""
    store = partition.store
    store.flush()
    cursor = (store.active_meta.segment_id, store.active_meta.data_size)
    tmp = Path(partition.data_dir) / f"p{partition.partition_id}_snap.tmp"
    with open(tmp, "wb") as f:
        _count, last_included = partition.index.snapshot_write(f, cursor=cursor)
        f.flush()
        os.fsync(f.fileno())
        size = f.tell()
    final = snapshot_path(partition.data_dir, partition.partition_id, last_included)
    os.replace(tmp, final)
    partition.counters.snapshot_bytes += size
    for lsn, path in list_snapshots(partition.data_dir, partition.partition_id):
        if path != final:
            path.unlink(missing_ok=True)
    return final, last_included


def recover_partition(
    partition_id: int, data_dir: Path | str, **partition_kwargs
) -> tuple[Partition, TailReport]:
    """Rebuild a partition from its data directory.

    Loads the newest valid snapshot and replays the uncovered tail; falls
    back to a full log scan when no usable snapshot exists.  A torn final
    record is truncated; corruption anywhere else propagates.
    """
    partition = Partition(partition_id, data_dir, **partition_kwargs)
    store = partition.store
    index = partition.index

    def replay(record: wal.LogRecord, position: wal.LogPosition) -> None:
        if record.kind == KIND_PUT:
            index.put(record.key, position, record.lsn)
        else:
            index.remove(record.key)

    # the rebuild allocates an object per index node and entry but makes no
    # cycles, so the cyclic collector's passes over them free nothing and
    # grow with the heap: pause it, then restore the caller's setting
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        last_included = 0
        report: TailReport | None = None
        for lsn, path in list_snapshots(Path(data_dir), partition_id):
            try:
                with open(path, "rb") as f:
                    tree, snap_lsn, (cur_seg, cur_off) = AdaptiveRadixTree.snapshot_load(f)
            except (SnapshotCorruptError, OSError):
                continue
            cursor_meta = store.segments.get(cur_seg)
            if cursor_meta is None or cursor_meta.state == wal.STATE_SORTED:
                # the cursor segment is gone (e.g. compacted away after an even
                # newer snapshot was lost); this snapshot cannot anchor a tail
                continue
            partition.index = index = tree
            last_included = snap_lsn
            report = store.replay_tail(
                replay, start_segment=cur_seg, start_offset=cur_off
            )
            break

        if report is None:
            # full rebuild: sorted segments first, then every unsorted record
            for sid in store.sorted_ids():
                for record, position in store.scan_segment(sid):
                    index.put(record.key, position, record.lsn)
                    partition.counters.records_replayed += 1
            report = store.replay_tail(replay)
    finally:
        if gc_was_enabled:
            gc.enable()

    if report.torn:
        store.truncate_torn_tail(report)

    flushed = max(
        last_included,
        report.last_valid_lsn,
        max((m.max_lsn for m in store.segments.values()
             if m.state == wal.STATE_SORTED), default=0),
    )
    store.set_last_lsn(flushed)
    partition.next_lsn = flushed + 1
    return partition, report


def recover_store(root_dir: Path | str, partitions: int, **store_kwargs) -> Store:
    """Recover every partition under `root_dir` (they are independent);
    the same as opening `Store(root_dir, partitions, **store_kwargs)`."""
    return Store(root_dir, partitions, **store_kwargs)
