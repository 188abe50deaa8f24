"""Snapshot-based recovery, as seen from outside the engine.

Opening a `Partition` is recovery: it loads the newest valid snapshot and
replays only the log written after the snapshot's cursor — index maintenance
only, no data redo.  This module names that path and the checkpoint files.
"""

from __future__ import annotations

from pathlib import Path

from .engine import Partition, Store, list_snapshots, snapshot_path  # noqa: F401
from .wal import TailReport

write_checkpoint = Partition.checkpoint


def recover_partition(
    partition_id: int, data_dir: Path | str, **partition_kwargs
) -> tuple[Partition, TailReport]:
    """Open a partition from its data directory, with the report of its tail
    replay (records read, torn tail)."""
    partition = Partition(partition_id, data_dir, **partition_kwargs)
    return partition, partition.tail_report


def recover_store(root_dir: Path | str, partitions: int, **store_kwargs) -> Store:
    """Recover every partition under `root_dir` (they are independent);
    the same as opening `Store(root_dir, partitions, **store_kwargs)`."""
    return Store(root_dir, partitions, **store_kwargs)
