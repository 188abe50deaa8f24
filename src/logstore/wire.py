"""Length-prefixed binary wire protocol, little-endian throughout.

Frame: [u32 length | u8 msg_type | payload], where length counts the type
byte plus the payload.  Replication and client traffic share the frame shape
and are distinguished by type code.  Keys and values travel as u32
length-prefixed byte strings; AppendEntries batches carry records in the log
file framing so a follower flushes exactly the bytes it received.

LSNs count per partition, so a session's read view is one LSN per partition
it wrote to: a write's OK reply names its partition, and a RANGE or BATCH_GET
ends in the whole view, (u32 partition, u64 LSN) pairs and then their u32
count.  A GET carries one view LSN for its key's partition, and may end in
the whole view too, since a client does not know which partition a key
routes to.  The RANGE and BATCH_GET result encoders append their frame to a
caller's `bytearray`, so a server writes a large reply once, into its output
buffer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import CorruptRecordError
from .wal import LogRecord, decode_record, encode_record

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_LEN = struct.Struct("<I")
_FRAME_HEAD = struct.Struct("<IBI")  # length, type, and a result's entry count
_VIEW = struct.Struct("<IQ")         # partition, the session's LSN in it

# replication
MSG_APPEND_ENTRIES = 0x01
MSG_APPEND_ACK = 0x02
MSG_APPEND_NACK = 0x03
# client requests
MSG_GET = 0x10
MSG_PUT = 0x11
MSG_DELETE = 0x12
MSG_RANGE = 0x13
MSG_BATCH_GET = 0x14
MSG_STATS = 0x15
MSG_PROMOTE = 0x16
# responses
MSG_VALUE = 0x20
MSG_OK = 0x21
MSG_ERR = 0x22
MSG_RANGE_RESULT = 0x23
MSG_BATCH_RESULT = 0x24
MSG_STATS_RESULT = 0x25

ERR_NOT_LEADER = 1
ERR_BACKPRESSURE = 2
ERR_REJECTED = 3
ERR_TIMEOUT = 4
ERR_INTERNAL = 5
ERR_BAD_REQUEST = 6


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    return _LEN.pack(1 + len(payload)) + _U8.pack(msg_type) + payload


def decode_frame(buf: bytes) -> tuple[int, bytes, int]:
    """Returns (msg_type, payload, total bytes consumed)."""
    if len(buf) < 5:
        raise CorruptRecordError("short frame")
    (length,) = _LEN.unpack_from(buf)
    total = 4 + length
    if len(buf) < total:
        raise CorruptRecordError("incomplete frame")
    return buf[4], bytes(buf[5:total]), total


def read_frame(sock) -> tuple[int, bytes]:
    """Read one frame from a socket; raises ConnectionError on EOF."""
    head = _recv_exact(sock, 4)
    (length,) = _LEN.unpack(head)
    body = _recv_exact(sock, length)
    return body[0], body[1:]


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _pack_bytes(b: bytes) -> bytes:
    return _U32.pack(len(b)) + b


def _unpack_bytes(buf: bytes, offset: int) -> tuple[bytes, int]:
    (n,) = _U32.unpack_from(buf, offset)
    offset += 4
    return buf[offset:offset + n], offset + n


# ---------------------------------------------------------------------------
# replication messages
# ---------------------------------------------------------------------------

@dataclass
class AppendEntries:
    partition: int
    epoch: int
    leader_commit_lsn: int
    records: list[LogRecord] = field(default_factory=list)

    def encode(self) -> bytes:
        parts = [
            _U32.pack(self.partition),
            _U64.pack(self.epoch),
            _U64.pack(self.leader_commit_lsn),
            _U32.pack(len(self.records)),
        ]
        for r in self.records:
            parts.append(encode_record(r.lsn, r.kind, r.key, r.value))
        return encode_frame(MSG_APPEND_ENTRIES, b"".join(parts))

    @classmethod
    def decode(cls, payload: bytes) -> "AppendEntries":
        partition, = _U32.unpack_from(payload, 0)
        epoch, = _U64.unpack_from(payload, 4)
        commit, = _U64.unpack_from(payload, 12)
        count, = _U32.unpack_from(payload, 20)
        records = []
        offset = 24
        for _ in range(count):
            record, consumed = decode_record(payload, offset)
            records.append(record)
            offset += consumed
        return cls(partition, epoch, commit, records)


@dataclass
class AppendAck:
    partition: int
    epoch: int
    node_id: int
    last_flushed_lsn: int
    msg_type: int = MSG_APPEND_ACK  # MSG_APPEND_NACK carries expected_lsn here

    def encode(self) -> bytes:
        payload = (
            _U32.pack(self.partition)
            + _U64.pack(self.epoch)
            + _U32.pack(self.node_id)
            + _U64.pack(self.last_flushed_lsn)
        )
        return encode_frame(self.msg_type, payload)

    @classmethod
    def decode(cls, payload: bytes, msg_type: int = MSG_APPEND_ACK) -> "AppendAck":
        partition, = _U32.unpack_from(payload, 0)
        epoch, = _U64.unpack_from(payload, 4)
        node_id, = _U32.unpack_from(payload, 12)
        lsn, = _U64.unpack_from(payload, 16)
        return cls(partition, epoch, node_id, lsn, msg_type)


# ---------------------------------------------------------------------------
# client requests
# ---------------------------------------------------------------------------

def encode_get(key: bytes, read_view_lsn: int = 0, views: dict[int, int] | None = None) -> bytes:
    payload = _pack_bytes(key) + _U64.pack(read_view_lsn)
    return encode_frame(MSG_GET, payload + _pack_views(views) if views else payload)


def decode_get(payload: bytes) -> tuple[bytes, int, dict[int, int]]:
    """The key, its view LSN, and the whole view when one ends the request."""
    key, offset = _unpack_bytes(payload, 0)
    (lsn,) = _U64.unpack_from(payload, offset)
    return key, lsn, read_views(payload) if len(payload) > offset + 8 else {}


def encode_put(key: bytes, value: bytes) -> bytes:
    return encode_frame(MSG_PUT, _pack_bytes(key) + _pack_bytes(value))


def decode_put(payload: bytes) -> tuple[bytes, bytes]:
    key, offset = _unpack_bytes(payload, 0)
    value, _ = _unpack_bytes(payload, offset)
    return key, value


def encode_delete(key: bytes) -> bytes:
    return encode_frame(MSG_DELETE, _pack_bytes(key))


def decode_delete(payload: bytes) -> bytes:
    key, _ = _unpack_bytes(payload, 0)
    return key


def _pack_views(views: dict[int, int] | None) -> bytes:
    views = views or {}
    return b"".join(_VIEW.pack(pid, lsn) for pid, lsn in views.items()) + _U32.pack(len(views))


def read_views(payload: bytes) -> dict[int, int]:
    """The view that ends a RANGE, BATCH_GET or GET request: partition -> LSN."""
    end = len(payload) - 4
    (count,) = _U32.unpack_from(payload, end)
    start = end - count * _VIEW.size
    if start < 0:
        raise CorruptRecordError("read view longer than its request")
    return dict(_VIEW.iter_unpack(payload[start:end]))


def encode_range(start: bytes, end: bytes, limit: int,
                 views: dict[int, int] | None = None) -> bytes:
    return encode_frame(
        MSG_RANGE,
        _pack_bytes(start) + _pack_bytes(end) + _U32.pack(limit) + _pack_views(views),
    )


def decode_range(payload: bytes) -> tuple[bytes, bytes, int]:
    start, offset = _unpack_bytes(payload, 0)
    end, offset = _unpack_bytes(payload, offset)
    (limit,) = _U32.unpack_from(payload, offset)
    return start, end, limit


def encode_batch_get(keys: list[bytes], views: dict[int, int] | None = None) -> bytes:
    parts = [_U32.pack(len(keys))]
    parts.extend(_pack_bytes(k) for k in keys)
    parts.append(_pack_views(views))
    return encode_frame(MSG_BATCH_GET, b"".join(parts))


def decode_batch_get(payload: bytes) -> list[bytes]:
    (count,) = _U32.unpack_from(payload, 0)
    keys = []
    offset = 4
    for _ in range(count):
        key, offset = _unpack_bytes(payload, offset)
        keys.append(key)
    return keys


def encode_stats() -> bytes:
    return encode_frame(MSG_STATS, b"")


def encode_promote(partition: int) -> bytes:
    return encode_frame(MSG_PROMOTE, _U32.pack(partition))


def decode_promote(payload: bytes) -> int:
    (partition,) = _U32.unpack_from(payload, 0)
    return partition


# ---------------------------------------------------------------------------
# responses
# ---------------------------------------------------------------------------

def encode_value(value: bytes | None) -> bytes:
    if value is None:
        return encode_frame(MSG_VALUE, _U8.pack(0))
    return encode_frame(MSG_VALUE, _U8.pack(1) + _pack_bytes(value))


def decode_value(payload: bytes) -> bytes | None:
    if payload[0] == 0:
        return None
    value, _ = _unpack_bytes(payload, 1)
    return value


def encode_ok(lsn: int = 0, flag: bool = True, partition: int = 0) -> bytes:
    return encode_frame(
        MSG_OK, _U8.pack(1 if flag else 0) + _U64.pack(lsn) + _U32.pack(partition))


def decode_ok(payload: bytes) -> tuple[bool, int]:
    (lsn,) = _U64.unpack_from(payload, 1)
    return bool(payload[0]), lsn


def ok_partition(payload: bytes) -> int:
    """The partition a PUT or DELETE reply's LSN belongs to."""
    (partition,) = _U32.unpack_from(payload, 9)
    return partition


def encode_err(code: int, message: str) -> bytes:
    return encode_frame(MSG_ERR, _U8.pack(code) + _pack_bytes(message.encode()))


def decode_err(payload: bytes) -> tuple[int, str]:
    message, _ = _unpack_bytes(payload, 1)
    return payload[0], message.decode()


def append_range_result(out: bytearray, pairs: list[tuple[bytes, bytes]]) -> None:
    """Append a RANGE_RESULT frame to `out` with no intermediate copy."""
    start = len(out)
    out += _FRAME_HEAD.pack(0, MSG_RANGE_RESULT, len(pairs))
    pack = _U32.pack
    for key, value in pairs:
        out += pack(len(key))
        out += key
        out += pack(len(value))
        out += value
    _LEN.pack_into(out, start, len(out) - start - 4)


def decode_range_result(payload: bytes) -> list[tuple[bytes, bytes]]:
    (count,) = _U32.unpack_from(payload, 0)
    offset = 4
    out = []
    for _ in range(count):
        key, offset = _unpack_bytes(payload, offset)
        value, offset = _unpack_bytes(payload, offset)
        out.append((key, value))
    return out


def append_batch_result(out: bytearray, pairs: list[tuple[bytes, bytes | None]]) -> None:
    """Append a BATCH_RESULT frame to `out`; a miss is a key and a 0 flag."""
    start = len(out)
    out += _FRAME_HEAD.pack(0, MSG_BATCH_RESULT, len(pairs))
    pack = _U32.pack
    for key, value in pairs:
        out += pack(len(key))
        out += key
        if value is None:
            out += b"\0"
        else:
            out += b"\1"
            out += pack(len(value))
            out += value
    _LEN.pack_into(out, start, len(out) - start - 4)


def decode_batch_result(payload: bytes) -> list[tuple[bytes, bytes | None]]:
    (count,) = _U32.unpack_from(payload, 0)
    offset = 4
    out = []
    for _ in range(count):
        key, offset = _unpack_bytes(payload, offset)
        present = payload[offset]
        offset += 1
        if present:
            value, offset = _unpack_bytes(payload, offset)
            out.append((key, value))
        else:
            out.append((key, None))
    return out


def encode_stats_result(text: str) -> bytes:
    return encode_frame(MSG_STATS_RESULT, text.encode())


def decode_stats_result(payload: bytes) -> str:
    return payload.decode()
