"""Restart paths: checkpoints, tail replay proportionality, torn tails."""

import gc
import io
import os

import pytest

from logstore.art import AdaptiveRadixTree
from logstore.engine import Partition, Store
from logstore.errors import CorruptRecordError
from logstore.recovery import (
    list_snapshots,
    recover_partition,
    recover_store,
    snapshot_path,
    write_checkpoint,
)
from logstore.wal import HEADER_LEN, LogPosition, SegmentStore


def fill(p, n, start=0, prefix=b"k"):
    for i in range(start, start + n):
        p.apply_put(b"%s%06d" % (prefix, i), b"value-%06d" % i)
    p.flush()


class TestCheckpoint:
    def test_checkpoint_replaces_older_snapshots(self, tmp_path):
        p = Partition(0, tmp_path)
        fill(p, 100)
        write_checkpoint(p)
        fill(p, 100, start=100)
        final, last = write_checkpoint(p)
        snaps = list_snapshots(tmp_path, 0)
        assert [(lsn, path) for lsn, path in snaps] == [(200, final)]
        assert last == 200
        p.close()

    def test_crash_mid_checkpoint_leaves_old_snapshot_usable(self, tmp_path):
        p = Partition(0, tmp_path)
        fill(p, 50)
        write_checkpoint(p)
        # a crash between temp write and rename leaves only a .tmp file
        (tmp_path / "p0_snap.tmp").write_bytes(b"partial garbage")
        assert [lsn for lsn, _ in list_snapshots(tmp_path, 0)] == [50]
        p.close()
        recovered, report = recover_partition(0, tmp_path)
        assert recovered.get(b"k000049") == b"value-000049"
        assert report.records_read == 0
        recovered.close()


class TestRecoverPartition:
    def test_recovery_without_snapshot_replays_everything(self, tmp_path):
        p = Partition(0, tmp_path)
        fill(p, 500)
        p.apply_delete(b"k000100")
        p.flush()
        p.close()
        recovered, report = recover_partition(0, tmp_path)
        assert report.records_read == 501
        assert recovered.get(b"k000100") is None
        assert recovered.get(b"k000499") == b"value-000499"
        assert recovered.next_lsn == 502
        recovered.close()

    def test_recovery_with_snapshot_replays_only_tail(self, tmp_path):
        p = Partition(0, tmp_path)
        fill(p, 1000)
        write_checkpoint(p)
        fill(p, 37, start=1000)
        p.close()
        recovered, report = recover_partition(0, tmp_path)
        assert report.records_read == 37          # exactly the uncovered tail
        assert recovered.counters.records_replayed == 37
        assert recovered.get(b"k000000") == b"value-000000"
        assert recovered.get(b"k001036") == b"value-001036"
        recovered.close()

    def test_recovered_lsns_continue_without_gap(self, tmp_path):
        p = Partition(0, tmp_path)
        fill(p, 10)
        write_checkpoint(p)
        p.close()
        recovered, _ = recover_partition(0, tmp_path)
        assert recovered.apply_put(b"next", b"v") == 11
        recovered.close()

    def test_corrupt_snapshot_falls_back_to_older_one(self, tmp_path):
        p = Partition(0, tmp_path)
        fill(p, 100)
        final, _ = write_checkpoint(p)
        fill(p, 100, start=100)
        newer, _ = write_checkpoint(p)
        p.close()
        # fabricate: re-create the older snapshot, corrupt the newer one
        data = newer.read_bytes()
        snapshot_path(tmp_path, 0, 100).write_bytes(data)  # stand-in older file
        with open(newer, "r+b") as f:
            f.seek(10)
            f.write(b"\xde\xad")
        recovered, report = recover_partition(0, tmp_path)
        assert recovered.get(b"k000199") == b"value-000199"
        recovered.close()

    def test_all_snapshots_corrupt_full_rebuild(self, tmp_path):
        p = Partition(0, tmp_path)
        fill(p, 200)
        final, _ = write_checkpoint(p)
        p.close()
        final.write_bytes(b"junk")
        recovered, report = recover_partition(0, tmp_path)
        assert report.records_read == 200
        assert recovered.get(b"k000123") == b"value-000123"
        recovered.close()

    def test_recovery_after_compaction_uses_snapshot_for_sorted_data(self, tmp_path):
        p = Partition(0, tmp_path, segment_bytes=4096)
        for i in range(1000):
            p.apply_put(b"k%03d" % (i % 200), b"v%06d" % i)
        p.compact()   # checkpoints before deleting inputs
        for i in range(25):
            p.apply_put(b"tail%02d" % i, b"t")
        p.flush()
        p.close()
        recovered, report = recover_partition(0, tmp_path, segment_bytes=4096)
        assert report.records_read == 25          # sorted data came from the snapshot
        assert recovered.get(b"k007") == b"v000807"
        assert recovered.get(b"tail24") == b"t"
        assert recovered.index.size == 225
        recovered.close()

    def test_tombstones_after_snapshot_stay_deleted(self, tmp_path):
        p = Partition(0, tmp_path)
        fill(p, 50)
        write_checkpoint(p)
        p.apply_delete(b"k000007")
        p.flush()
        p.close()
        recovered, _ = recover_partition(0, tmp_path)
        assert recovered.get(b"k000007") is None
        recovered.close()

    def test_replay_is_idempotent_under_stale_records(self, tmp_path):
        """Overwrites replayed oldest-first must land on the newest version."""
        p = Partition(0, tmp_path)
        for i in range(20):
            p.apply_put(b"hotkey", b"v%02d" % i)
        p.flush()
        p.close()
        recovered, report = recover_partition(0, tmp_path)
        assert report.records_read == 20
        assert recovered.get(b"hotkey") == b"v19"
        assert recovered.index.size == 1
        recovered.close()


class TestRecoveryPausesTheCollector:
    @pytest.fixture
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_is_off_during_replay_and_restored_after(
            self, tmp_path, monkeypatch, restore_gc, enabled):
        p = Partition(0, tmp_path)
        fill(p, 10)
        p.close()
        seen = []
        replay_tail = SegmentStore.replay_tail

        def spy(self, *args, **kwargs):
            seen.append(gc.isenabled())
            return replay_tail(self, *args, **kwargs)

        monkeypatch.setattr(SegmentStore, "replay_tail", spy)
        gc.enable() if enabled else gc.disable()
        recovered, report = recover_partition(0, tmp_path)
        assert (seen, report.records_read) == ([False], 10)
        assert gc.isenabled() is enabled
        recovered.close()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_is_restored_when_recovery_raises(
            self, tmp_path, monkeypatch, restore_gc, enabled):
        def fail(self, *args, **kwargs):
            raise CorruptRecordError("bad record mid-log")

        monkeypatch.setattr(SegmentStore, "replay_tail", fail)
        gc.enable() if enabled else gc.disable()
        with pytest.raises(CorruptRecordError):
            recover_partition(0, tmp_path)
        assert gc.isenabled() is enabled


class TestTornTail:
    def test_torn_last_record_truncated_and_writes_resume(self, tmp_path):
        p = Partition(0, tmp_path)
        fill(p, 30)
        path = p.store.segment_path(p.store.active_meta.segment_id)
        p.close()
        size = path.stat().st_size
        with open(path, "r+b") as f:
            f.truncate(size - 5)
        recovered, report = recover_partition(0, tmp_path)
        assert report.torn
        assert recovered.get(b"k000029") is None   # the torn write is gone
        assert recovered.get(b"k000028") == b"value-000028"
        assert recovered.apply_put(b"resume", b"v") == 30  # reuses the torn lsn
        assert recovered.get(b"resume") == b"v"
        recovered.close()

    def test_mid_log_corruption_refuses_to_recover(self, tmp_path):
        p = Partition(0, tmp_path)
        positions = [p.apply_put(b"k%02d" % i, b"payload") for i in range(20)]
        p.flush()
        path = p.store.segment_path(0)
        entry = p.index.get(b"k05")
        p.close()
        with open(path, "r+b") as f:
            f.seek(entry.position.offset + HEADER_LEN)
            f.write(b"\x00")
        with pytest.raises(CorruptRecordError):
            recover_partition(0, tmp_path)


class TestRecoverStore:
    def test_multi_partition_recovery(self, tmp_path):
        store = Store(tmp_path, partitions=4)
        for i in range(400):
            store.put(b"key%04d" % i, b"v%d" % i)
        store.checkpoint()
        for i in range(400, 450):
            store.put(b"key%04d" % i, b"v%d" % i)
        store.close()
        recovered = recover_store(tmp_path, 4)
        for i in (0, 250, 449):
            assert recovered.get(b"key%04d" % i) == b"v%d" % i
        # only the post-checkpoint tail was replayed, across all partitions
        assert recovered.counters.records_replayed == 50
        recovered.close()


class TestSnapshotFormat:
    # Written by the insertion-built tree of an earlier release: keys b"app",
    # b"apple", b"applepie", b"b", b"k\x00\x01", b"k\x00\x02", b"k\x01" at
    # versions 10..16, positions (i % 2, 21 * i), cursor (1, 147).
    SNAPSHOT = bytes.fromhex(
        "5849534c01030000000000000000000000000000000a00000000000000617070"
        "050000000100000015000000000000000b000000000000006170706c65080000"
        "00000000002a000000000000000c000000000000006170706c65706965010000"
        "00010000003f000000000000000d000000000000006203000000000000005400"
        "0000000000000e000000000000006b0001030000000100000069000000000000"
        "000f000000000000006b000202000000000000007e0000000000000010000000"
        "000000006b010700000000000000100000000000000001000000930000000000"
        "0000a7b9a191"
    )
    KEYS = [b"app", b"apple", b"applepie", b"b", b"k\x00\x01", b"k\x00\x02", b"k\x01"]

    def test_stored_snapshot_loads_and_rewrites_byte_for_byte(self):
        tree, last_lsn, cursor = AdaptiveRadixTree.snapshot_load(io.BytesIO(self.SNAPSHOT))
        assert (last_lsn, cursor, tree.size) == (16, (1, 147), 7)
        assert [(e.key, e.position, e.version_lsn) for e in tree.items()] == [
            (key, LogPosition(i % 2, 21 * i), 10 + i) for i, key in enumerate(self.KEYS)
        ]
        assert tree.node_kinds() == {4: 5}
        out = io.BytesIO()
        assert tree.snapshot_write(out, cursor=cursor) == (7, 16)
        assert out.getvalue() == self.SNAPSHOT
