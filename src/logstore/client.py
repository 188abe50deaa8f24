"""Blocking TCP client for a single node.

Tracks the LSNs its own writes returned and passes them along with reads, so
a session always observes its own writes even when pointed at a follower.
LSNs count per partition: a read carries the session's last write LSN in
each partition it wrote to, and the server gates each partition it reads on
that partition's LSN.
"""

from __future__ import annotations

import socket

from . import wire
from .errors import LogStoreError, NotLeaderError, ReadRejectedError


class ClientError(LogStoreError):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class Client:
    def __init__(self, host: str, port: int, timeout: float = 15.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.views: dict[int, int] = {}  # partition -> the LSN of this session's last write

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, frame: bytes) -> tuple[int, bytes]:
        self.sock.sendall(frame)
        msg_type, payload = wire.read_frame(self.sock)
        if msg_type == wire.MSG_ERR:
            code, message = wire.decode_err(payload)
            if code == wire.ERR_NOT_LEADER:
                raise NotLeaderError(message)
            if code == wire.ERR_REJECTED:
                raise ReadRejectedError(message)
            raise ClientError(code, message)
        return msg_type, payload

    def put(self, key: bytes, value: bytes) -> int:
        _, payload = self._call(wire.encode_put(key, value))
        _, lsn = wire.decode_ok(payload)
        self._wrote(payload, lsn)
        return lsn

    def delete(self, key: bytes) -> bool:
        _, payload = self._call(wire.encode_delete(key))
        flag, lsn = wire.decode_ok(payload)
        self._wrote(payload, lsn)
        return flag

    def _wrote(self, ok_payload: bytes, lsn: int) -> None:
        pid = wire.ok_partition(ok_payload)
        self.views[pid] = max(self.views.get(pid, 0), lsn)

    def get(self, key: bytes, view_lsn: int | None = None) -> bytes | None:
        """The key's value, read at `view_lsn` or else at the session's view."""
        if view_lsn is None:
            frame = wire.encode_get(key, 0, self.views)
        else:
            frame = wire.encode_get(key, view_lsn)
        _, payload = self._call(frame)
        return wire.decode_value(payload)

    def range(self, start: bytes, end: bytes, limit: int = 0,
              views: dict[int, int] | None = None) -> list[tuple[bytes, bytes]]:
        _, payload = self._call(wire.encode_range(start, end, limit, self._views(views)))
        return wire.decode_range_result(payload)

    def batch_get(self, keys: list[bytes],
                  views: dict[int, int] | None = None) -> list[bytes | None]:
        _, payload = self._call(wire.encode_batch_get(keys, self._views(views)))
        return [value for _, value in wire.decode_batch_result(payload)]

    def _views(self, views: dict[int, int] | None) -> dict[int, int]:
        return self.views if views is None else views

    def stats(self) -> str:
        _, payload = self._call(wire.encode_stats())
        return wire.decode_stats_result(payload)

    def promote(self, partition: int) -> int:
        _, payload = self._call(wire.encode_promote(partition))
        _, lsn = wire.decode_ok(payload)
        return lsn
