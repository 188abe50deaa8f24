"""Threaded TCP node: client API, replication streams, and executors.

One executor thread owns each partition; every read and write crosses into
it through the partition's bounded FIFO queue.  Replication runs on separate
sender/receiver threads per peer, talking the same frame protocol as clients.
The node drives `replication.ReplicationCore`, which holds every protocol
step; this module adds only sockets, threads, locks and timeouts.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass

from . import wire
from .config import NodeConfig
from .engine import Store, route
from .errors import LogStoreError, NotLeaderError
from .recovery import recover_store
from .replication import (
    GATE_BLOCK,
    GATE_REJECT,
    HEARTBEAT_INTERVAL,
    ROLE_FOLLOWER,
    ROLE_LEADER,
    ReplicationCore,
)
from .wal import KIND_DELETE, KIND_PUT

log = logging.getLogger("logstore.server")

READ_GATE_TIMEOUT = 5.0
HEARTBEAT_THREAD = "logstore-hb"


class _Future:
    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
        self.result = None
        self.error: tuple[int, str] | None = None

    def resolve(self, result) -> None:
        self.result = result
        self.event.set()

    def fail(self, code: int, message: str) -> None:
        self.error = (code, message)
        self.event.set()


@dataclass
class _BlockedRead:
    key: bytes
    view_lsn: int
    future: _Future
    deadline: float


class _PeerLink:
    """Outbound replication connection to one follower."""

    def __init__(self, server: "ServerNode", peer_id: int, addr: str):
        self.server = server
        self.peer_id = peer_id
        self.addr = addr
        self.frames: queue.Queue = queue.Queue()
        self.sock: socket.socket | None = None
        self._lock = threading.Lock()
        threading.Thread(target=self._send_loop, daemon=True).start()

    def _connect(self) -> bool:
        with self._lock:
            if self.sock is not None:
                return True
            host, _, port = self.addr.rpartition(":")
            try:
                sock = socket.create_connection((host, int(port)), timeout=2.0)
            except OSError:
                return False
            self.sock = sock
            threading.Thread(target=self._recv_loop, args=(sock,), daemon=True).start()
            return True

    def _drop(self) -> None:
        with self._lock:
            if self.sock is not None:
                try:
                    self.sock.close()
                except OSError:
                    pass
                self.sock = None
        # resend everything unacked once the follower is reachable again;
        # duplicate batches are idempotent on the other end
        self.server.rewind_peer(self.peer_id)

    def _send_loop(self) -> None:
        while not self.server.stopped:
            try:
                frame = self.frames.get(timeout=0.2)
            except queue.Empty:
                continue
            while not self.server.stopped:
                if not self._connect():
                    time.sleep(0.1)
                    continue
                try:
                    self.sock.sendall(frame)
                    break
                except OSError:
                    self._drop()

    def _recv_loop(self, sock: socket.socket) -> None:
        try:
            while not self.server.stopped:
                msg_type, payload = wire.read_frame(sock)
                if msg_type in (wire.MSG_APPEND_ACK, wire.MSG_APPEND_NACK):
                    self.server.on_peer_ack(wire.AppendAck.decode(payload, msg_type))
        except (ConnectionError, OSError):
            self._drop()


class ServerNode:
    def __init__(self, config: NodeConfig):
        self.config = config
        self.stopped = False
        self.store: Store = recover_store(
            config.data_dir,
            config.partitions,
            cache_bytes=config.cache_bytes,
            cooling_fraction=config.cooling_fraction,
            seed=config.seed,
            flush_policy=config.flush_policy,
            segment_bytes=config.segment_bytes,
        )
        role = ROLE_LEADER if config.node_id == config.leader_node else ROLE_FOLLOWER
        self.core = ReplicationCore(
            self.store, config.node_id, config.peers, role, config.max_batch,
            send=lambda peer, frame: self.peer_links[peer].frames.put(frame),
            deliver=lambda _pid, reply: reply.token.resolve(reply.result),
        )
        self.replicas = self.core.replicas
        # the core's calls for one partition run under that partition's lock
        self.locks = {pid: threading.RLock() for pid in self.replicas}
        self.queues = {pid: queue.Queue(maxsize=config.queue_depth) for pid in self.replicas}
        self.blocked_reads: dict[int, list[_BlockedRead]] = {pid: [] for pid in self.replicas}
        self.peer_links = {
            pid: _PeerLink(self, pid, addr) for pid, addr in config.peers.items()
        }
        self.listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        host, port = self.config.addr_tuple()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        self.listener = listener
        for pid in self.replicas:
            t = threading.Thread(target=self._executor_loop, args=(pid,), daemon=True)
            t.start()
            self._threads.append(t)
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)
        # one heartbeat loop serves every partition this node leads, now or after a promotion
        t = threading.Thread(target=self._heartbeat_loop, daemon=True, name=HEARTBEAT_THREAD)
        t.start()
        self._threads.append(t)
        log.info("node %d listening on %s:%d", self.config.node_id, host, port)

    def stop(self) -> None:
        self.stopped = True
        if self.listener is not None:
            try:
                self.listener.close()
            except OSError:
                pass
        time.sleep(0.05)
        for pid, partition in enumerate(self.store.partitions):
            with self.locks[pid]:
                partition.flush()
                partition.checkpoint()
        self.store.close()

    @property
    def port(self) -> int:
        return self.listener.getsockname()[1]

    # -- networking ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self.stopped:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            threading.Thread(target=self._conn_loop, args=(conn,), daemon=True).start()

    def _conn_loop(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()
        try:
            while not self.stopped:
                msg_type, payload = wire.read_frame(conn)
                if msg_type == wire.MSG_APPEND_ENTRIES:
                    self._handle_append_stream(conn, write_lock, payload)
                else:
                    reply = self._handle_client(msg_type, payload)
                    with write_lock:
                        conn.sendall(reply)
        except (ConnectionError, OSError):
            pass
        finally:
            conn.close()

    # -- replication: follower side ----------------------------------------

    def _handle_append_stream(self, conn, write_lock, payload: bytes) -> None:
        msg = wire.AppendEntries.decode(payload)

        def work():
            with self.locks[msg.partition]:
                ack = self.core.append(msg)
                self._drain_blocked_reads(msg.partition)
            with write_lock:
                try:
                    conn.sendall(ack)
                except OSError:
                    pass

        self.queues[msg.partition].put(("work", work))

    # -- replication: leader side ---------------------------------------------

    def on_peer_ack(self, ack: wire.AppendAck) -> None:
        with self.locks[ack.partition]:
            self.core.handle_ack(ack)

    def rewind_peer(self, peer_id: int) -> None:
        for pid, lock in self.locks.items():
            with lock:
                self.core.rewind(pid, peer_id)

    def _heartbeat_loop(self) -> None:
        while not self.stopped:
            time.sleep(HEARTBEAT_INTERVAL)
            for pid, lock in self.locks.items():
                with lock:
                    self.core.ship(pid, heartbeat=True)

    # -- executors ----------------------------------------------------------------

    def _executor_loop(self, pid: int) -> None:
        self.store.partitions[pid].adopt_owner()
        q = self.queues[pid]
        replica = self.replicas[pid]
        while not self.stopped:
            try:
                item = q.get(timeout=0.1)
            except queue.Empty:
                if self.blocked_reads[pid]:  # expire timed-out reads
                    with self.locks[pid]:
                        self._drain_blocked_reads(pid)
                continue
            kind, payload = item
            if kind == "work":
                payload()
            # Whatever woke the loop, run every op dispatched so far.  So an
            # op whose own "mod" signal met a full queue still runs: a full
            # queue holds items that will wake this loop after the dispatch.
            while replica.pending_exec:
                with self.locks[pid]:
                    self.core.execute(pid)

    def _answer_read(self, pid: int, key: bytes, view_lsn: int, future: _Future) -> bool:
        """Serve or reject a gated read; False when it must wait."""
        value = self.core.read(pid, key, view_lsn)
        if value is GATE_BLOCK:
            return False
        if value is GATE_REJECT:
            future.fail(wire.ERR_REJECTED, "view lsn beyond log")
        else:
            future.resolve(value)
        return True

    def _drain_blocked_reads(self, pid: int) -> None:
        still_blocked = []
        for blocked in self.blocked_reads[pid]:
            if self._answer_read(pid, blocked.key, blocked.view_lsn, blocked.future):
                continue
            if time.monotonic() > blocked.deadline:
                blocked.future.fail(wire.ERR_TIMEOUT, "read gate timeout; retry")
            else:
                still_blocked.append(blocked)
        self.blocked_reads[pid] = still_blocked

    # -- client request handling ------------------------------------------------

    def _handle_client(self, msg_type: int, payload: bytes) -> bytes:
        try:
            if msg_type == wire.MSG_PUT:
                key, value = wire.decode_put(payload)
                return self._client_modify(KIND_PUT, key, value)
            if msg_type == wire.MSG_DELETE:
                key = wire.decode_delete(payload)
                return self._client_modify(KIND_DELETE, key, b"")
            if msg_type == wire.MSG_GET:
                key, view_lsn = wire.decode_get(payload)
                return self._client_get(key, view_lsn)
            if msg_type == wire.MSG_RANGE:
                start, end, limit = wire.decode_range(payload)
                return self._client_read(
                    lambda: wire.encode_range_result(self.store.range(start, end, limit or None))
                )
            if msg_type == wire.MSG_BATCH_GET:
                keys = wire.decode_batch_get(payload)
                return self._client_read(
                    lambda: wire.encode_batch_result(self.store.batch_get(keys))
                )
            if msg_type == wire.MSG_STATS:
                return wire.encode_stats_result(self._stats_text())
            if msg_type == wire.MSG_PROMOTE:
                pid = wire.decode_promote(payload)
                return self._client_promote(pid)
            return wire.encode_err(wire.ERR_BAD_REQUEST, f"unknown type {msg_type:#x}")
        except NotLeaderError:
            return wire.encode_err(
                wire.ERR_NOT_LEADER, f"not leader; try node {self.config.leader_node}"
            )
        except LogStoreError as exc:
            return wire.encode_err(wire.ERR_INTERNAL, str(exc))

    def _client_modify(self, kind: int, key: bytes, value: bytes) -> bytes:
        pid = route(key, self.config.partitions)
        future = _Future()
        with self.locks[pid]:
            if len(self.replicas[pid].pending_exec) >= self.config.queue_depth:
                return wire.encode_err(wire.ERR_BACKPRESSURE, "partition queue full; retry")
            lsn = self.core.write(pid, kind, key, value, future)
        try:
            self.queues[pid].put_nowait(("mod", None))
        except queue.Full:
            pass  # the queued items wake the executor, which runs every pending op
        if not future.event.wait(timeout=10.0):
            return wire.encode_err(wire.ERR_TIMEOUT, "commit timeout")
        if future.error is not None:
            return wire.encode_err(*future.error)
        if kind == KIND_PUT:
            return wire.encode_ok(lsn=future.result)
        return wire.encode_ok(lsn=lsn, flag=bool(future.result))

    def _client_get(self, key: bytes, view_lsn: int) -> bytes:
        pid = route(key, self.config.partitions)
        future = _Future()

        def work():
            with self.locks[pid]:
                if not self._answer_read(pid, key, view_lsn, future):
                    self.blocked_reads[pid].append(
                        _BlockedRead(key, view_lsn, future,
                                     time.monotonic() + READ_GATE_TIMEOUT)
                    )

        self.queues[pid].put(("work", work))
        if not future.event.wait(timeout=READ_GATE_TIMEOUT + 5.0):
            return wire.encode_err(wire.ERR_TIMEOUT, "read timeout")
        if future.error is not None:
            return wire.encode_err(*future.error)
        return wire.encode_value(future.result)

    def _client_read(self, fn) -> bytes:
        # cross-partition reads (range, batch-get) fan out through each
        # partition executor; serialized here per partition via the locks
        done = _Future()

        def work():
            with ExitStack() as held:
                for pid in sorted(self.locks):
                    held.enter_context(self.locks[pid])
                done.resolve(fn())

        first = next(iter(self.queues.values()))
        first.put(("work", work))
        if not done.event.wait(timeout=10.0):
            return wire.encode_err(wire.ERR_TIMEOUT, "read timeout")
        return done.result

    def _client_promote(self, pid: int) -> bytes:
        peer_flushed = self._probe_peer_flushed(pid)
        with self.locks[pid]:
            self.core.take_over(pid, peer_flushed)
        self.config.leader_node = self.config.node_id
        return wire.encode_ok(lsn=self.replicas[pid].state.flushed)

    def _probe_peer_flushed(self, pid: int) -> dict[int, int]:
        """Best-effort STATS probe of each peer; unreachable peers are skipped."""
        out: dict[int, int] = {}
        for peer_id, addr in self.config.peers.items():
            host, _, port = addr.rpartition(":")
            try:
                with socket.create_connection((host, int(port)), timeout=0.5) as sock:
                    sock.sendall(wire.encode_stats())
                    msg_type, payload = wire.read_frame(sock)
            except OSError:
                continue
            if msg_type != wire.MSG_STATS_RESULT:
                continue
            for line in wire.decode_stats_result(payload).splitlines():
                fields = dict(kv.split("=") for kv in line.split())
                if int(fields["partition"]) == pid:
                    out[peer_id] = int(fields["flushed"])
        return out

    def _stats_text(self) -> str:
        lines = []
        for pid, replica in self.replicas.items():
            st = replica.state
            cache = self.store.partitions[pid].cache.stats()
            lines.append(
                f"partition={pid} role={replica.role} epoch={replica.epoch} "
                f"flushed={st.flushed} potential_commit={st.potential_commit} "
                f"replayed={st.replayed} live_keys={self.store.partitions[pid].index.size} "
                f"cache_hit_ratio={cache['hit_ratio']:.4f}"
            )
        return "\n".join(lines)

