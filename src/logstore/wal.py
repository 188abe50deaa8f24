"""Segmented append-only log: the only durable data repository.

Records are framed with a fixed little-endian header
[lsn u64 | kind u8 | key_len u32 | val_len u32 | crc32 u32] followed by the
key and value bytes, so a positioned read needs exactly one IO.  Segments are
either the single active one, sealed-unsorted, or sorted (compaction output,
ascending key order, at most one record per key).  Every segment file holds
records only: the in-memory index is the one index over them.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    CorruptRecordError,
    InvalidPositionError,
    LsnGapError,
    PartitionFaultError,
)
from .metrics import Counters

KIND_PUT = 0
KIND_DELETE = 1

_PREFIX = struct.Struct("<QBII")          # lsn, kind, key_len, val_len
_CRC = struct.Struct("<I")
_HEADER = struct.Struct("<QBIII")         # the prefix, then the crc
HEADER_LEN = _HEADER.size                 # 21 bytes

STATE_ACTIVE = "active"
STATE_SEALED_UNSORTED = "sealed_unsorted"
STATE_SORTED = "sorted"

DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024
# every record starts below this offset in its segment: the index keeps an
# offset in 32 bits (Kafka caps its segments at 2 GiB for the same reason)
MAX_SEGMENT_BYTES = 1 << 32


class LogPosition(NamedTuple):
    segment_id: int
    offset: int


class LogRecord(NamedTuple):
    lsn: int
    kind: int
    key: bytes
    value: bytes


_new_tuple = tuple.__new__


def record_size(key: bytes, value: bytes) -> int:
    return HEADER_LEN + len(key) + len(value)


def encode_record(lsn: int, kind: int, key: bytes, value: bytes) -> bytes:
    prefix = _PREFIX.pack(lsn, kind, len(key), len(value))
    crc = zlib.crc32(value, zlib.crc32(key, zlib.crc32(prefix)))
    return prefix + _CRC.pack(crc) + key + value


def decode_record(buf: bytes, offset: int = 0) -> tuple[LogRecord, int]:
    """Decode one record at `offset`; returns (record, bytes consumed).

    Raises CorruptRecordError on checksum mismatch, IndexError-free short
    reads surface as CorruptRecordError too.
    """
    end = offset + HEADER_LEN
    if end > len(buf):
        raise CorruptRecordError("short header")
    lsn, kind, key_len, val_len, crc = _HEADER.unpack_from(buf, offset)
    key_end = end + key_len
    body_end = key_end + val_len
    if body_end > len(buf):
        raise CorruptRecordError("short body")
    key = buf[end:key_end]
    value = buf[key_end:body_end]
    # the crc runs over the packed prefix as stored, then the key and value
    # slices the record returns anyway
    if zlib.crc32(value, zlib.crc32(key, zlib.crc32(buf[offset:offset + _PREFIX.size]))) != crc:
        raise CorruptRecordError(f"crc mismatch at offset {offset}")
    if kind not in (KIND_PUT, KIND_DELETE):
        raise CorruptRecordError(f"bad record kind {kind}")
    # tuple.__new__ skips the named tuple's Python-level __new__
    return _new_tuple(LogRecord, (lsn, kind, key, value)), body_end - offset


def _frame_reaches_eof(buf: bytes, offset: int) -> bool:
    """True when the frame at `offset` is the file's final (possibly partial)
    frame — the signature of a torn write, as opposed to mid-log corruption
    with intact frames after it."""
    if offset + HEADER_LEN > len(buf):
        return True
    _, _, key_len, val_len = _PREFIX.unpack_from(buf, offset)
    return offset + HEADER_LEN + key_len + val_len >= len(buf)


@dataclass
class SegmentMeta:
    segment_id: int
    state: str
    max_lsn: int = 0
    data_size: int = 0        # bytes of records in the file

    @classmethod
    def from_json(cls, d: dict) -> "SegmentMeta":
        # a MANIFEST written by an older version also carries "min_lsn"
        return cls(d["segment_id"], d["state"], d["max_lsn"], d["data_size"])


@dataclass
class TailReport:
    last_valid_lsn: int = 0
    records_read: int = 0
    torn: bool = False
    torn_segment: int | None = None
    torn_offset: int | None = None


class SegmentStore:
    """All segment files of one partition plus the MANIFEST."""

    def __init__(
        self,
        directory: Path | str,
        partition_id: int,
        counters: Counters | None = None,
        flush_policy: str = "group",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        if not 0 < segment_bytes <= MAX_SEGMENT_BYTES:
            raise ValueError(f"segment_bytes must be in (0, {MAX_SEGMENT_BYTES}]")
        self.directory = Path(directory)
        self.partition_id = partition_id
        self.counters = counters if counters is not None else Counters()
        self.flush_policy = flush_policy
        self.segment_bytes = segment_bytes
        self.read_only = False
        self.segments: dict[int, SegmentMeta] = {}
        self.next_segment_id = 0
        self._active_id: int | None = None
        self._active_f = None
        self._last_lsn = 0
        self._read_handles: dict[int, object] = {}
        self._dirty_since_flush = False

        self.directory.mkdir(parents=True, exist_ok=True)
        if self._manifest_path().exists():
            self._load_manifest()
        else:
            self._create_active_segment()
            self._write_manifest()

    # -- paths ----------------------------------------------------------

    def segment_path(self, segment_id: int) -> Path:
        return self.directory / f"p{self.partition_id}_s{segment_id}.log"

    def _manifest_path(self) -> Path:
        return self.directory / "MANIFEST"

    # -- manifest -------------------------------------------------------

    def _write_manifest(self) -> None:
        payload = json.dumps(
            {
                "partition": self.partition_id,
                "next_segment_id": self.next_segment_id,
                "segments": [asdict(m) for m in sorted(self.segments.values(), key=lambda m: m.segment_id)],
            }
        ).encode()
        tmp = self._manifest_path().with_suffix(".tmp")
        with open(tmp, "wb") as f:
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self._manifest_path())

    def _load_manifest(self) -> None:
        with open(self._manifest_path(), "rb") as f:
            data = json.loads(f.read())
        self.next_segment_id = data["next_segment_id"]
        for d in data["segments"]:
            meta = SegmentMeta.from_json(d)
            self.segments[meta.segment_id] = meta
            if meta.state == STATE_ACTIVE:
                self._active_id = meta.segment_id
                self._last_lsn = meta.max_lsn
        if self._active_id is None:
            self._create_active_segment()
            self._write_manifest()
        else:
            # The manifest entry for the active segment is only rewritten at
            # rotation, so after a crash its size is stale; trust the file.
            meta = self.active_meta
            meta.data_size = self.segment_path(self._active_id).stat().st_size
            self._open_active_for_append()
        # last_lsn for the active segment is only re-established by the
        # recovery tail scan (set_last_lsn); sealed and sorted metas are
        # authoritative.
        for m in self.segments.values():
            if m.state != STATE_ACTIVE:
                self._last_lsn = max(self._last_lsn, m.max_lsn)

    # -- active segment lifecycle ----------------------------------------

    def _create_active_segment(self) -> None:
        sid = self.next_segment_id
        self.next_segment_id += 1
        path = self.segment_path(sid)
        path.touch()
        self.segments[sid] = SegmentMeta(segment_id=sid, state=STATE_ACTIVE)
        self._active_id = sid
        self._open_active_for_append()

    def _open_active_for_append(self) -> None:
        if self._active_f is not None:
            self._active_f.close()
        self._active_f = open(self.segment_path(self._active_id), "ab")

    @property
    def active_meta(self) -> SegmentMeta:
        return self.segments[self._active_id]

    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    def set_last_lsn(self, lsn: int) -> None:
        """Recovery hook: establish the LSN frontier after a tail scan.  A
        non-empty active segment holds the log's last record, and its manifest
        entry is stale after a reopen that replays none of it."""
        self._last_lsn = max(self._last_lsn, lsn)
        if self.active_meta.data_size:
            self.active_meta.max_lsn = self._last_lsn

    # -- append path ------------------------------------------------------

    def append(self, kind: int, key: bytes, value: bytes, lsn: int) -> LogPosition:
        if self.read_only:
            raise PartitionFaultError("partition is in read-only fault state")
        if not key:
            raise ValueError("empty key")
        if lsn != self._last_lsn + 1:
            raise LsnGapError(f"lsn {lsn} does not follow {self._last_lsn}")
        buf = encode_record(lsn, kind, key, value)
        meta = self.active_meta
        offset = meta.data_size
        try:
            self._active_f.write(buf)
            self._active_f.flush()
        except OSError as exc:  # disk full / IO failure
            self.read_only = True
            raise PartitionFaultError(str(exc)) from exc
        self._dirty_since_flush = True
        self._last_lsn = lsn
        meta.data_size += len(buf)
        meta.max_lsn = lsn
        self.counters.append_bytes += len(buf)
        return LogPosition(self._active_id, offset)

    def flush(self) -> None:
        """Group flush: one durable sync covering everything appended so far."""
        fd = self.take_sync()
        if fd is not None:
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def take_sync(self) -> int | None:
        """The group flush, handed out: count it and return a duplicate of the
        active segment's descriptor for the caller to fsync and close, or None
        when nothing needs a sync.  A rotation does not close the duplicate, so
        the sync may run on another thread while appends go on."""
        if not self._dirty_since_flush:
            return None
        self.counters.group_flushes += 1
        self._dirty_since_flush = False
        if self.flush_policy != "group":
            return None
        self.counters.fsyncs += 1
        return os.dup(self._active_f.fileno())

    def should_rotate(self) -> bool:
        return self.active_meta.data_size >= self.segment_bytes

    def seal_and_rotate(self) -> SegmentMeta:
        meta = self.active_meta
        if meta.data_size == 0:
            return meta
        self.flush()
        meta.state = STATE_SEALED_UNSORTED
        self._active_f.close()
        self._active_f = None
        self._create_active_segment()
        self._write_manifest()
        return meta

    # -- read path --------------------------------------------------------

    def _read_handle(self, segment_id: int):
        f = self._read_handles.get(segment_id)
        if f is None:
            path = self.segment_path(segment_id)
            if not path.exists():
                raise InvalidPositionError(f"segment {segment_id} does not exist")
            f = open(path, "rb")
            self._read_handles[segment_id] = f
        return f

    def read_at(self, position: LogPosition) -> LogRecord:
        """Exactly one positioned read; checksum verified."""
        meta = self.segments.get(position.segment_id)
        if meta is None:
            raise InvalidPositionError(f"unknown segment {position.segment_id}")
        if position.offset >= meta.data_size:
            raise InvalidPositionError(
                f"offset {position.offset} beyond segment {position.segment_id}"
            )
        f = self._read_handle(position.segment_id)
        f.seek(position.offset)
        head = f.read(HEADER_LEN)
        if len(head) < HEADER_LEN:
            raise CorruptRecordError("short header")
        _, _, key_len, val_len = _PREFIX.unpack_from(head)
        body = f.read(key_len + val_len)
        self.counters.log_point_reads += 1
        record, _ = decode_record(head + body)
        return record

    # -- sequential scans ---------------------------------------------------

    def unsorted_ids(self) -> list[int]:
        return sorted(
            sid for sid, m in self.segments.items() if m.state != STATE_SORTED
        )

    def sorted_ids(self) -> list[int]:
        return sorted(
            sid for sid, m in self.segments.items() if m.state == STATE_SORTED
        )

    def scan_segment(self, segment_id: int) -> Iterator[tuple[LogRecord, LogPosition]]:
        """Decode every record of one segment in file order."""
        meta = self.segments[segment_id]
        if meta.state == STATE_ACTIVE:
            self._active_f.flush()
        with open(self.segment_path(segment_id), "rb") as f:
            buf = f.read(meta.data_size)
        offset = 0
        self.counters.seq_scans += 1
        while offset < len(buf):
            record, consumed = decode_record(buf, offset)
            yield record, LogPosition(segment_id, offset)
            offset += consumed

    def scan_all(self) -> Iterator[tuple[LogRecord, LogPosition]]:
        """All records, sorted segments first, then unsorted in segment order."""
        for sid in self.sorted_ids() + self.unsorted_ids():
            yield from self.scan_segment(sid)

    def replay_tail(
        self,
        handler: Callable[[LogRecord, LogPosition], None],
        start_segment: int = -1,
        start_offset: int = 0,
    ) -> TailReport:
        """Scan unsorted segments from a cursor, feeding records to `handler`.

        Stops at a torn tail (short or checksum-failing frame at the very end
        of the last segment).  Corruption anywhere else raises, since it can
        never be an unacknowledged write.
        """
        report = TailReport()
        ids = [sid for sid in self.unsorted_ids() if sid >= max(start_segment, 0)]
        if self._active_f is not None:
            self._active_f.flush()
        for idx, sid in enumerate(ids):
            # read from the cursor on; `base` turns buffer offsets back into
            # file offsets
            base = start_offset if sid == start_segment else 0
            with open(self.segment_path(sid), "rb") as f:
                f.seek(base)
                buf = f.read()
            offset = 0
            is_last = idx == len(ids) - 1
            meta = self.segments[sid]
            while offset < len(buf):
                try:
                    record, consumed = decode_record(buf, offset)
                except CorruptRecordError:
                    if is_last and _frame_reaches_eof(buf, offset):
                        report.torn = True
                        report.torn_segment = sid
                        report.torn_offset = base + offset
                        return report
                    raise
                # tuple.__new__ skips LogPosition's Python-level __new__,
                # which costs recovery as much as the packing of the leaf
                handler(record, _new_tuple(LogPosition, (sid, base + offset)))
                report.records_read += 1
                self.counters.records_replayed += 1
                report.last_valid_lsn = max(report.last_valid_lsn, record.lsn)
                if meta.state == STATE_ACTIVE:
                    # re-establish in-memory stats the manifest cannot carry
                    meta.max_lsn = max(meta.max_lsn, record.lsn)
                offset += consumed
        return report

    def truncate_torn_tail(self, report: TailReport) -> None:
        if not report.torn:
            return
        sid, offset = report.torn_segment, report.torn_offset
        path = self.segment_path(sid)
        with open(path, "r+b") as f:
            f.truncate(offset)
        meta = self.segments[sid]
        meta.data_size = offset
        if meta.state == STATE_ACTIVE:
            self._open_active_for_append()
        self._write_manifest()

    # -- compaction ---------------------------------------------------------

    def compact_merge(
        self,
        sorted_segment_ids: Iterable[int],
        sealed_unsorted_ids: Iterable[int],
    ) -> tuple[SegmentMeta, dict[bytes, tuple[LogPosition, int]]]:
        """Merge inputs into one new sorted segment.

        Keeps, per key, only the record with the highest LSN; keys whose
        newest record is a Delete are dropped.  The output's max_lsn is the
        inputs' max, dropped records included, so it still marks how far
        the log reached; for that it is written even when no key is live.
        Returns (new segment meta,
        {key -> (position, lsn)} remap).  All-or-nothing: on IO failure the
        inputs stay untouched.  Input removal is the caller's job (after the
        remap and a covering checkpoint have been applied).
        """
        inputs = list(sorted_segment_ids) + list(sealed_unsorted_ids)
        best: dict[bytes, LogRecord] = {}
        for sid in inputs:
            meta = self.segments[sid]
            if meta.state == STATE_ACTIVE:
                raise ValueError("compaction inputs must be sealed")
            for record, _pos in self.scan_segment(sid):
                cur = best.get(record.key)
                if cur is None or record.lsn > cur.lsn:
                    best[record.key] = record
        live = [r for _, r in sorted(best.items()) if r.kind == KIND_PUT]
        if sum(record_size(r.key, r.value) for r in live) > MAX_SEGMENT_BYTES:
            raise PartitionFaultError("compaction output would exceed MAX_SEGMENT_BYTES")

        sid = self.next_segment_id
        self.next_segment_id += 1
        path = self.segment_path(sid)
        tmp = path.with_suffix(".tmp")
        remap: dict[bytes, tuple[LogPosition, int]] = {}
        try:
            with open(tmp, "wb") as f:
                offset = 0
                for record in live:
                    buf = encode_record(record.lsn, record.kind, record.key, record.value)
                    f.write(buf)
                    remap[record.key] = (LogPosition(sid, offset), record.lsn)
                    offset += len(buf)
                    self.counters.compaction_bytes += len(buf)
                f.flush()
                os.fsync(f.fileno())
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, path)
        meta = SegmentMeta(
            segment_id=sid,
            state=STATE_SORTED,
            max_lsn=max(self.segments[i].max_lsn for i in inputs),
            data_size=offset,
        )
        self.segments[sid] = meta
        self._write_manifest()
        return meta, remap

    def remove_segments(self, segment_ids: Iterable[int]) -> None:
        for sid in segment_ids:
            if sid == self._active_id:
                raise ValueError("cannot remove the active segment")
            self.segments.pop(sid, None)
            handle = self._read_handles.pop(sid, None)
            if handle is not None:
                handle.close()
            self.segment_path(sid).unlink(missing_ok=True)
        self._write_manifest()

    def close(self) -> None:
        if self._active_f is not None:
            self.flush()
            self._active_f.close()
            self._active_f = None
        for f in self._read_handles.values():
            f.close()
        self._read_handles.clear()
