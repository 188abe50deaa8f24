"""Log framing, segment lifecycle, and compaction."""

import json
import os
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from logstore import wal
from logstore.errors import CorruptRecordError, LsnGapError, PartitionFaultError
from logstore.metrics import Counters
from logstore.wal import (
    HEADER_LEN,
    KIND_DELETE,
    KIND_PUT,
    LogPosition,
    SegmentStore,
    decode_record,
    encode_record,
    record_size,
)


def make_store(tmp_path, **kw):
    return SegmentStore(tmp_path, 0, Counters(), **kw)


class TestFraming:
    def test_header_is_21_bytes(self):
        # u64 lsn + u8 kind + u32 key_len + u32 val_len + u32 crc
        assert HEADER_LEN == 21

    def test_record_size(self):
        assert record_size(b"a", b"bcd") == 25

    def test_roundtrip(self):
        buf = encode_record(7, KIND_PUT, b"key", b"value")
        record, consumed = decode_record(buf)
        assert consumed == len(buf) == HEADER_LEN + 8
        assert (record.lsn, record.kind, record.key, record.value) == (
            7, KIND_PUT, b"key", b"value")

    def test_empty_value_tombstone(self):
        buf = encode_record(1, KIND_DELETE, b"k", b"")
        record, _ = decode_record(buf)
        assert record.kind == KIND_DELETE and record.value == b""

    def test_crc_covers_value(self):
        buf = bytearray(encode_record(1, KIND_PUT, b"k", b"value"))
        buf[-1] ^= 0x01  # flip one bit in the value
        with pytest.raises(CorruptRecordError):
            decode_record(bytes(buf))

    def test_crc_covers_header(self):
        buf = bytearray(encode_record(1, KIND_PUT, b"k", b"value"))
        buf[0] ^= 0x01  # flip one bit in the lsn
        with pytest.raises(CorruptRecordError):
            decode_record(bytes(buf))

    def test_short_buffer(self):
        buf = encode_record(1, KIND_PUT, b"k", b"v")
        with pytest.raises(CorruptRecordError):
            decode_record(buf[:-1])

    @given(lsn=st.integers(min_value=1, max_value=2**63),
           kind=st.sampled_from([KIND_PUT, KIND_DELETE]),
           key=st.binary(min_size=1, max_size=64),
           value=st.binary(max_size=256))
    @settings(max_examples=200)
    def test_roundtrip_property(self, lsn, kind, key, value):
        record, consumed = decode_record(encode_record(lsn, kind, key, value))
        assert (record.lsn, record.kind, record.key, record.value) == (
            lsn, kind, key, value)
        assert consumed == HEADER_LEN + len(key) + len(value)


class TestAppend:
    def test_positions_are_byte_offsets(self, tmp_path):
        store = make_store(tmp_path)
        p1 = store.append(KIND_PUT, b"a", b"bcd", 1)
        p2 = store.append(KIND_PUT, b"e", b"f", 2)
        assert p1 == LogPosition(0, 0)
        assert p2 == LogPosition(0, 25)  # 21-byte header + 1 + 3
        store.close()

    def test_lsn_must_be_contiguous(self, tmp_path):
        store = make_store(tmp_path)
        store.append(KIND_PUT, b"a", b"1", 1)
        with pytest.raises(LsnGapError):
            store.append(KIND_PUT, b"b", b"2", 3)
        with pytest.raises(LsnGapError):
            store.append(KIND_PUT, b"b", b"2", 1)
        store.close()

    def test_empty_key_rejected(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ValueError):
            store.append(KIND_PUT, b"", b"v", 1)
        store.close()

    def test_read_at_returns_exact_record(self, tmp_path):
        store = make_store(tmp_path)
        positions = [store.append(KIND_PUT, f"k{i}".encode(), f"v{i}".encode(), i + 1)
                     for i in range(100)]
        store.flush()
        for i in (0, 42, 99):
            record = store.read_at(positions[i])
            assert record.key == f"k{i}".encode()
            assert record.value == f"v{i}".encode()
        store.close()

    def test_group_flush_single_fsync(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(50):
            store.append(KIND_PUT, b"k%d" % i, b"v", i + 1)
        before = store.counters.fsyncs
        store.flush()
        store.flush()  # idempotent: nothing new to sync
        assert store.counters.fsyncs == before + 1
        assert store.counters.group_flushes == 1
        store.close()

    def test_write_once_bytes(self, tmp_path):
        """Without compaction, bytes written == sum of encoded record sizes."""
        store = make_store(tmp_path)
        expected = 0
        for i in range(200):
            key, value = b"key%03d" % i, os.urandom(32)
            store.append(KIND_PUT, key, value, i + 1)
            expected += record_size(key, value)
        assert store.counters.append_bytes == expected
        assert store.counters.compaction_bytes == 0
        store.close()


class TestSegments:
    def test_rotation_creates_new_file(self, tmp_path):
        store = make_store(tmp_path, segment_bytes=256)
        lsn = 0
        while not store.should_rotate():
            lsn += 1
            store.append(KIND_PUT, b"k%d" % lsn, b"v" * 16, lsn)
        store.seal_and_rotate()
        store.append(KIND_PUT, b"after", b"v", lsn + 1)
        assert len(store.segments) == 2
        assert store.segment_path(1).exists()
        store.close()

    def test_segments_beyond_32_bit_offsets_are_refused(self, tmp_path):
        # the index packs an offset into 32 bits
        with pytest.raises(ValueError):
            make_store(tmp_path, segment_bytes=wal.MAX_SEGMENT_BYTES + 1)
        make_store(tmp_path, segment_bytes=wal.MAX_SEGMENT_BYTES).close()

    def test_rotate_empty_active_is_noop(self, tmp_path):
        store = make_store(tmp_path)
        meta = store.seal_and_rotate()
        assert meta.data_size == 0
        assert len(store.segments) == 1
        store.close()

    def test_manifest_survives_reopen(self, tmp_path):
        store = make_store(tmp_path, segment_bytes=128)
        for i in range(20):
            store.append(KIND_PUT, b"k%02d" % i, b"v" * 8, i + 1)
            if store.should_rotate():
                store.seal_and_rotate()
        ids = sorted(store.segments)
        store.close()
        reopened = make_store(tmp_path, segment_bytes=128)
        assert sorted(reopened.segments) == ids
        reopened.close()

    def test_manifest_with_min_lsn_still_opens(self, tmp_path):
        # older versions wrote a "min_lsn" per segment; it is read and dropped
        store = make_store(tmp_path, segment_bytes=128)
        positions = {}
        for i in range(20):
            positions[i + 1] = store.append(KIND_PUT, b"k%02d" % i, b"v" * 8, i + 1)
            if store.should_rotate():
                store.seal_and_rotate()
        metas = {sid: (m.state, m.max_lsn, m.data_size) for sid, m in store.segments.items()}
        store.close()
        manifest = tmp_path / "MANIFEST"
        data = json.loads(manifest.read_bytes())
        for d in data["segments"]:
            assert "min_lsn" not in d
            d["min_lsn"] = 1
        manifest.write_text(json.dumps(data))
        reopened = make_store(tmp_path, segment_bytes=128)
        assert {sid: (m.state, m.max_lsn, m.data_size)
                for sid, m in reopened.segments.items()} == metas
        assert [reopened.read_at(p).lsn for p in positions.values()] == list(positions)
        reopened.append(KIND_PUT, b"after", b"v", 21)
        reopened.close()

    def test_scan_all_yields_every_record(self, tmp_path):
        store = make_store(tmp_path, segment_bytes=128)
        for i in range(30):
            store.append(KIND_PUT, b"k%02d" % i, b"v", i + 1)
            if store.should_rotate():
                store.seal_and_rotate()
        seen = [record.lsn for record, _ in store.scan_all()]
        assert seen == list(range(1, 31))
        store.close()


class TestCompaction:
    def fill(self, store, n=100, dup_every=4, delete_every=10):
        lsn = 0
        for i in range(n):
            lsn += 1
            store.append(KIND_PUT, b"k%03d" % (i % (n // dup_every)), b"v%d" % i, lsn)
        for i in range(0, n // dup_every, delete_every):
            lsn += 1
            store.append(KIND_DELETE, b"k%03d" % i, b"", lsn)
        return lsn

    def oracle(self, store):
        live = {}
        for record, _ in store.scan_all():
            if record.kind == KIND_PUT:
                live[record.key] = record.value
            else:
                live.pop(record.key, None)
        return live

    def test_merge_beyond_max_segment_bytes_fails_and_keeps_its_inputs(
            self, tmp_path, monkeypatch):
        store = make_store(tmp_path)
        self.fill(store)
        sealed = store.seal_and_rotate().segment_id
        live = self.oracle(store)
        monkeypatch.setattr(wal, "MAX_SEGMENT_BYTES", 64)
        with pytest.raises(PartitionFaultError):
            store.compact_merge([], [sealed])
        assert sorted(store.segments) == [sealed, sealed + 1]
        assert self.oracle(store) == live
        store.close()

    def test_merge_matches_last_writer_wins_oracle(self, tmp_path):
        store = make_store(tmp_path, segment_bytes=512)
        self.fill(store)
        expected = self.oracle(store)
        store.seal_and_rotate()
        sealed = [sid for sid, m in store.segments.items() if m.state == "sealed_unsorted"]
        meta, remap = store.compact_merge(store.sorted_ids(), sealed)
        got = {}
        for record, _ in store.scan_segment(meta.segment_id):
            assert record.kind == KIND_PUT  # tombstones dropped
            got[record.key] = record.value
        assert got == expected
        assert set(remap) == set(expected)
        assert list(got) == sorted(got)  # output is key-ordered
        store.close()

    def test_merge_remap_positions_read_back(self, tmp_path):
        store = make_store(tmp_path, segment_bytes=512)
        self.fill(store, n=60)
        expected = self.oracle(store)
        store.seal_and_rotate()
        sealed = [sid for sid, m in store.segments.items() if m.state == "sealed_unsorted"]
        _, remap = store.compact_merge(store.sorted_ids(), sealed)
        for key, (pos, _lsn) in remap.items():
            assert store.read_at(pos).value == expected[key]
        store.close()

    def test_compaction_bytes_tracked_separately(self, tmp_path):
        store = make_store(tmp_path, segment_bytes=512)
        self.fill(store, n=40)
        appended = store.counters.append_bytes
        store.seal_and_rotate()
        sealed = [sid for sid, m in store.segments.items() if m.state == "sealed_unsorted"]
        store.compact_merge(store.sorted_ids(), sealed)
        assert store.counters.append_bytes == appended  # user-write bytes unchanged
        assert store.counters.compaction_bytes > 0
        store.close()


class TestTailReplay:
    def test_replay_from_cursor_reads_only_tail(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(100):
            store.append(KIND_PUT, b"k%03d" % i, b"v", i + 1)
        cursor = (store.active_meta.segment_id, store.active_meta.data_size)
        for i in range(100, 125):
            store.append(KIND_PUT, b"k%03d" % i, b"v", i + 1)
        seen = []
        report = store.replay_tail(lambda r, p: seen.append(r.lsn),
                                   start_segment=cursor[0],
                                   start_offset=cursor[1])
        assert seen == list(range(101, 126))
        assert report.records_read == 25
        store.close()

    def test_torn_final_record_detected_and_truncated(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(10):
            store.append(KIND_PUT, b"k%d" % i, b"payload", i + 1)
        store.flush()
        path = store.segment_path(store.active_meta.segment_id)
        store.close()
        size = path.stat().st_size
        with open(path, "r+b") as f:
            f.truncate(size - 3)  # tear the last frame

        reopened = make_store(tmp_path)
        report = reopened.replay_tail(lambda r, p: None)
        assert report.torn
        assert report.last_valid_lsn == 9
        reopened.truncate_torn_tail(report)
        # appends continue after the torn suffix was dropped
        reopened.set_last_lsn(9)
        reopened.append(KIND_PUT, b"new", b"v", 10)
        reopened.flush()
        clean = reopened.replay_tail(lambda r, p: None)
        assert not clean.torn and clean.last_valid_lsn == 10
        reopened.close()

    def test_torn_frame_after_mid_segment_cursor(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(20):
            store.append(KIND_PUT, b"k%02d" % i, b"payload", i + 1)
        cursor = store.active_meta.data_size
        for i in range(20, 30):
            store.append(KIND_PUT, b"k%02d" % i, b"payload", i + 1)
        store.flush()
        path = store.segment_path(store.active_meta.segment_id)
        store.close()
        size = path.stat().st_size
        with open(path, "r+b") as f:
            f.truncate(size - 3)  # tear the last frame
        torn_at = size - record_size(b"k29", b"payload")

        reopened = make_store(tmp_path)
        seen = []
        report = reopened.replay_tail(lambda r, p: seen.append((r.lsn, p.offset)),
                                      start_segment=0, start_offset=cursor)
        assert [lsn for lsn, _ in seen] == list(range(21, 30))
        assert seen[0][1] == cursor          # positions are file offsets
        assert report.torn and report.torn_segment == 0
        assert report.torn_offset == torn_at
        reopened.truncate_torn_tail(report)
        assert path.stat().st_size == torn_at
        reopened.close()

    def test_mid_log_corruption_raises(self, tmp_path):
        store = make_store(tmp_path)
        positions = [store.append(KIND_PUT, b"k%d" % i, b"payload", i + 1)
                     for i in range(10)]
        store.flush()
        path = store.segment_path(0)
        store.close()
        with open(path, "r+b") as f:
            f.seek(positions[4].offset + HEADER_LEN)
            f.write(b"\xff")  # corrupt key byte of record 5, not at the tail

        reopened = make_store(tmp_path)
        with pytest.raises(CorruptRecordError):
            reopened.replay_tail(lambda r, p: None)
        reopened.close()
