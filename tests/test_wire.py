"""Frame protocol round-trips and framing arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from logstore import wire
from logstore.errors import CorruptRecordError
from logstore.wal import KIND_DELETE, KIND_PUT, LogRecord


class TestFraming:
    def test_length_counts_type_and_payload(self):
        frame = wire.encode_frame(0x10, b"abc")
        assert frame[:4] == (1 + 3).to_bytes(4, "little")
        msg_type, payload, consumed = wire.decode_frame(frame)
        assert (msg_type, payload, consumed) == (0x10, b"abc", len(frame))

    def test_decode_partial_frame_raises(self):
        frame = wire.encode_frame(0x10, b"abcdef")
        with pytest.raises(Exception):
            wire.decode_frame(frame[:5])

    @given(st.integers(min_value=0, max_value=255), st.binary(max_size=512))
    @settings(max_examples=100)
    def test_frame_roundtrip(self, msg_type, payload):
        got_type, got_payload, consumed = wire.decode_frame(
            wire.encode_frame(msg_type, payload))
        assert (got_type, got_payload) == (msg_type, payload)
        assert consumed == 4 + 1 + len(payload)


class TestReplicationMessages:
    def test_append_entries_roundtrip(self):
        records = [LogRecord(1, KIND_PUT, b"k1", b"v1"),
                   LogRecord(2, KIND_DELETE, b"k2", b"")]
        msg = wire.AppendEntries(3, 7, 42, records)
        _, payload, _ = wire.decode_frame(msg.encode())
        got = wire.AppendEntries.decode(payload)
        assert got == msg

    def test_records_travel_in_log_framing(self):
        # the on-wire record bytes are exactly the on-disk record bytes
        from logstore.wal import encode_record
        record = LogRecord(9, KIND_PUT, b"key", b"value")
        msg = wire.AppendEntries(0, 1, 0, [record])
        _, payload, _ = wire.decode_frame(msg.encode())
        assert payload[24:] == encode_record(9, KIND_PUT, b"key", b"value")

    def test_ack_and_nack_roundtrip(self):
        for msg_type in (wire.MSG_APPEND_ACK, wire.MSG_APPEND_NACK):
            msg = wire.AppendAck(1, 2, 3, 400, msg_type)
            _, payload, _ = wire.decode_frame(msg.encode())
            assert wire.AppendAck.decode(payload, msg_type) == msg


class TestClientMessages:
    def roundtrip(self, frame):
        _, payload, _ = wire.decode_frame(frame)
        return payload

    def test_get(self):
        assert wire.decode_get(self.roundtrip(wire.encode_get(b"k", 12))) == (b"k", 12, {})

    def test_get_at_one_lsn_keeps_its_layout(self):
        # u32 key length, key, u64 view LSN: nothing follows
        assert wire.encode_get(b"key", 12) == (
            (1 + 4 + 3 + 8).to_bytes(4, "little") + bytes([wire.MSG_GET])
            + (3).to_bytes(4, "little") + b"key" + (12).to_bytes(8, "little"))
        assert wire.encode_get(b"key", 12, {}) == wire.encode_get(b"key", 12)

    def test_get_may_end_in_the_whole_view(self):
        views = {0: 10, 1: 2**64 - 1}
        payload = self.roundtrip(wire.encode_get(b"k", 0, views))
        assert wire.decode_get(payload) == (b"k", 0, views)

    def test_put(self):
        payload = self.roundtrip(wire.encode_put(b"k", b"v" * 100))
        assert wire.decode_put(payload) == (b"k", b"v" * 100)

    def test_delete(self):
        assert wire.decode_delete(self.roundtrip(wire.encode_delete(b"k"))) == b"k"

    def test_range(self):
        payload = self.roundtrip(wire.encode_range(b"a", b"z", 10))
        assert wire.decode_range(payload) == (b"a", b"z", 10)

    def test_batch_get(self):
        keys = [b"a", b"bb", b"ccc"]
        assert wire.decode_batch_get(self.roundtrip(wire.encode_batch_get(keys))) == keys

    def test_promote(self):
        assert wire.decode_promote(self.roundtrip(wire.encode_promote(3))) == 3

    def test_value_present_and_absent(self):
        assert wire.decode_value(self.roundtrip(wire.encode_value(b"data"))) == b"data"
        assert wire.decode_value(self.roundtrip(wire.encode_value(None))) is None
        assert wire.decode_value(self.roundtrip(wire.encode_value(b""))) == b""

    def test_ok(self):
        assert wire.decode_ok(self.roundtrip(wire.encode_ok(lsn=7, flag=False))) == (False, 7)

    def test_ok_names_the_partition_of_its_lsn(self):
        payload = self.roundtrip(wire.encode_ok(lsn=7, partition=3))
        assert (wire.decode_ok(payload), wire.ok_partition(payload)) == ((True, 7), 3)

    def test_err(self):
        payload = self.roundtrip(wire.encode_err(wire.ERR_NOT_LEADER, "try node 2"))
        assert wire.decode_err(payload) == (wire.ERR_NOT_LEADER, "try node 2")

    def test_range_result(self):
        pairs = [(b"a", b"1"), (b"b", b"")]
        payload = self.roundtrip(_appended(wire.append_range_result, pairs))
        assert wire.decode_range_result(payload) == pairs

    def test_batch_result_with_misses(self):
        pairs = [(b"a", b"1"), (b"b", None), (b"c", b"")]
        payload = self.roundtrip(_appended(wire.append_batch_result, pairs))
        assert wire.decode_batch_result(payload) == pairs

    def test_scans_end_with_a_view_lsn_per_partition(self):
        views = {0: 34, 3: 2**64 - 1}
        payload = self.roundtrip(wire.encode_range(b"a", b"z", 10, views))
        assert (wire.decode_range(payload), wire.read_views(payload)) == ((b"a", b"z", 10), views)
        payload = self.roundtrip(wire.encode_batch_get([b"a", b"bb"], {1: 56}))
        assert (wire.decode_batch_get(payload), wire.read_views(payload)) == (
            [b"a", b"bb"], {1: 56})
        assert wire.read_views(self.roundtrip(wire.encode_range(b"a", b"z", 10))) == {}
        assert wire.read_views(self.roundtrip(wire.encode_batch_get([]))) == {}

    def test_view_count_beyond_its_request_is_corrupt(self):
        with pytest.raises(CorruptRecordError):
            wire.read_views(b"\x00\x00\x00\x00" + (9).to_bytes(4, "little"))

    def test_stats_result(self):
        text = "partition=0 flushed=10\npartition=1 flushed=3"
        payload = self.roundtrip(wire.encode_stats_result(text))
        assert wire.decode_stats_result(payload) == text

    @given(st.binary(min_size=1, max_size=64), st.binary(max_size=256),
           st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=100)
    def test_put_get_fuzz(self, key, value, lsn):
        _, p1, _ = wire.decode_frame(wire.encode_put(key, value))
        assert wire.decode_put(p1) == (key, value)
        _, p2, _ = wire.decode_frame(wire.encode_get(key, lsn))
        assert wire.decode_get(p2) == (key, lsn, {})


def _appended(append, pairs):
    out = bytearray()
    append(out, pairs)
    return bytes(out)


def _list_encoded(msg_type, pairs):
    """A result frame built the way a parts list and a join build it."""
    parts = [len(pairs).to_bytes(4, "little")]
    for key, value in pairs:
        parts.append(len(key).to_bytes(4, "little") + key)
        if msg_type == wire.MSG_BATCH_RESULT:
            parts.append(b"\0" if value is None else b"\1")
        if value is not None:
            parts.append(len(value).to_bytes(4, "little") + value)
    return wire.encode_frame(msg_type, b"".join(parts))


class TestAppendingEncoders:
    pairs = st.lists(st.tuples(st.binary(min_size=1, max_size=16), st.binary(max_size=300)),
                     max_size=20)

    @given(pairs, st.binary(max_size=8))
    @settings(max_examples=100)
    def test_range_result_bytes_equal_the_list_encoding(self, pairs, before):
        out = bytearray(before)
        wire.append_range_result(out, pairs)
        assert bytes(out) == before + _list_encoded(wire.MSG_RANGE_RESULT, pairs)

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=16),
                              st.none() | st.binary(max_size=300)), max_size=20),
           st.binary(max_size=8))
    @settings(max_examples=100)
    def test_batch_result_bytes_equal_the_list_encoding_misses_included(self, pairs, before):
        out = bytearray(before)
        wire.append_batch_result(out, pairs)
        assert bytes(out) == before + _list_encoded(wire.MSG_BATCH_RESULT, pairs)

    def test_frames_appended_back_to_back_decode_in_order(self):
        out = bytearray()
        wire.append_range_result(out, [(b"a", b"1")])
        wire.append_batch_result(out, [(b"a", b"1"), (b"b", None)])
        kind, payload, used = wire.decode_frame(out)
        assert (kind, wire.decode_range_result(payload)) == (
            wire.MSG_RANGE_RESULT, [(b"a", b"1")])
        kind, payload, _ = wire.decode_frame(out[used:])
        assert (kind, wire.decode_batch_result(payload)) == (
            wire.MSG_BATCH_RESULT, [(b"a", b"1"), (b"b", None)])
