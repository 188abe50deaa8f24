"""Threaded TCP node: client API, replication streams, and executors.

One executor thread owns each partition; every read and write crosses into
it through the partition's bounded FIFO queue.  Replication runs on separate
sender/receiver threads per peer, talking the same frame protocol as clients.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from . import wire
from .config import NodeConfig
from .engine import Store, route
from .errors import LogStoreError, NotLeaderError
from .recovery import recover_store
from .replication import (
    GATE_BLOCK,
    GATE_REJECT,
    GATE_SERVE,
    HEARTBEAT_INTERVAL,
    ROLE_FOLLOWER,
    ROLE_LEADER,
    PartitionReplica,
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
        self.sender = threading.Thread(target=self._send_loop, daemon=True)
        self.sender.start()

    def enqueue(self, frame: bytes) -> None:
        self.frames.put(frame)

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
        peer_ids = sorted(config.peers)
        self.replicas: dict[int, PartitionReplica] = {}
        self.locks: dict[int, threading.RLock] = {}
        self.queues: dict[int, queue.Queue] = {}
        self.blocked_reads: dict[int, list[_BlockedRead]] = {}
        self.futures: dict[tuple[int, int], _Future] = {}
        for pid in range(config.partitions):
            self.replicas[pid] = PartitionReplica(
                self.store.partitions[pid],
                config.node_id,
                config.cluster_size,
                role=role,
                peer_ids=peer_ids,
                max_batch=config.max_batch,
            )
            self.locks[pid] = threading.RLock()
            self.queues[pid] = queue.Queue(maxsize=config.queue_depth)
            self.blocked_reads[pid] = []
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
            self._maybe_pin(t, pid)
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)
        if self._is_leader_anywhere():
            self._start_heartbeat()
        log.info("node %d listening on %s:%d", self.config.node_id, host, port)

    def _start_heartbeat(self) -> None:
        """One heartbeat loop per node serves every partition it leads."""
        if any(t.name == HEARTBEAT_THREAD for t in self._threads):
            return
        t = threading.Thread(target=self._heartbeat_loop, daemon=True, name=HEARTBEAT_THREAD)
        t.start()
        self._threads.append(t)

    def _maybe_pin(self, thread: threading.Thread, pid: int) -> None:
        if not self.config.pin_executors:
            return
        try:
            import os

            cpus = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(thread.native_id or 0, {cpus[pid % len(cpus)]})
        except (AttributeError, OSError):
            log.warning("executor pinning unavailable; continuing unpinned")

    def _is_leader_anywhere(self) -> bool:
        return any(r.role == ROLE_LEADER for r in self.replicas.values())

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
            replica = self.replicas[msg.partition]
            with self.locks[msg.partition]:
                status, lsn = replica.handle_append_entries(
                    msg.epoch, msg.leader_commit_lsn, msg.records
                )
                self._drain_blocked_reads(msg.partition)
            ack = wire.AppendAck(
                msg.partition, replica.epoch, self.config.node_id, lsn,
                wire.MSG_APPEND_ACK if status == "ack" else wire.MSG_APPEND_NACK,
            )
            with write_lock:
                try:
                    conn.sendall(ack.encode())
                except OSError:
                    pass

        self.queues[msg.partition].put(("work", work))

    # -- replication: leader side ---------------------------------------------

    def on_peer_ack(self, ack: wire.AppendAck) -> None:
        replica = self.replicas.get(ack.partition)
        if replica is None or replica.role != ROLE_LEADER:
            return
        with self.locks[ack.partition]:
            if ack.msg_type == wire.MSG_APPEND_NACK:
                replica.reset_peer_cursor(ack.node_id, ack.last_flushed_lsn)
            else:
                replica.on_ack(ack.node_id, ack.last_flushed_lsn)
                self._resolve_ready(ack.partition)
            self._ship(ack.partition)

    def rewind_peer(self, peer_id: int) -> None:
        for pid, replica in self.replicas.items():
            if replica.role != ROLE_LEADER:
                continue
            with self.locks[pid]:
                replica.reset_peer_cursor(peer_id, replica.hwm.get(peer_id, 0) + 1)

    def _ship(self, pid: int) -> None:
        """Send stage: push unsent batches to every peer, pipelined."""
        replica = self.replicas[pid]
        for peer_id, link in self.peer_links.items():
            records = replica.take_unsent(peer_id)
            if records is None:
                continue
            msg = wire.AppendEntries(
                pid, replica.epoch, replica.commit_lsn_for_send(peer_id), records
            )
            link.enqueue(msg.encode())

    def _heartbeat_loop(self) -> None:
        while not self.stopped:
            time.sleep(HEARTBEAT_INTERVAL)
            for pid, replica in self.replicas.items():
                if replica.role != ROLE_LEADER:
                    continue
                with self.locks[pid]:
                    for peer_id, link in self.peer_links.items():
                        if replica.needs_commit_heartbeat(peer_id):
                            msg = wire.AppendEntries(
                                pid, replica.epoch,
                                replica.commit_lsn_for_send(peer_id), [],
                            )
                            link.enqueue(msg.encode())

    # -- executors ----------------------------------------------------------------

    def _executor_loop(self, pid: int) -> None:
        self.store.partitions[pid].adopt_owner()
        q = self.queues[pid]
        replica = self.replicas[pid]
        while not self.stopped:
            try:
                item = q.get(timeout=0.1)
            except queue.Empty:
                self._expire_blocked_reads(pid)
                continue
            kind, payload = item
            if kind == "work":
                payload()
            # Whatever woke the loop, run every op dispatched so far.  So an
            # op whose own "mod" signal met a full queue still runs: a full
            # queue holds items that will wake this loop after the dispatch.
            while replica.pending_exec:
                with self.locks[pid]:
                    replica.exec_batch()
                    self._ship(pid)
                    self._resolve_ready(pid)

    def _resolve_ready(self, pid: int) -> None:
        for obj in self.replicas[pid].ready_replies():
            future = self.futures.pop((pid, obj.lsn), None)
            if future is not None:
                future.resolve(obj.result)

    def _drain_blocked_reads(self, pid: int) -> None:
        still_blocked = []
        replica = self.replicas[pid]
        partition = self.store.partitions[pid]
        for blocked in self.blocked_reads[pid]:
            decision = replica.read_gate(blocked.view_lsn)
            if decision.action == GATE_SERVE:
                blocked.future.resolve(partition.get(blocked.key))
            elif decision.action == GATE_REJECT:
                blocked.future.fail(wire.ERR_REJECTED, "view lsn beyond log")
            elif time.monotonic() > blocked.deadline:
                blocked.future.fail(wire.ERR_TIMEOUT, "read gate timeout; retry")
            else:
                still_blocked.append(blocked)
        self.blocked_reads[pid] = still_blocked

    def _expire_blocked_reads(self, pid: int) -> None:
        if not self.blocked_reads[pid]:
            return
        with self.locks[pid]:
            self._drain_blocked_reads(pid)

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
                    None, lambda: wire.encode_range_result(
                        self.store.range(start, end, limit or None)
                    )
                )
            if msg_type == wire.MSG_BATCH_GET:
                keys = wire.decode_batch_get(payload)
                return self._client_read(
                    None, lambda: wire.encode_batch_result(self.store.batch_get(keys))
                )
            if msg_type == wire.MSG_STATS:
                return wire.encode_stats_result(self._stats_text())
            if msg_type == wire.MSG_PROMOTE:
                pid = wire.decode_promote(payload)
                return self._client_promote(pid)
            return wire.encode_err(wire.ERR_BAD_REQUEST, f"unknown type {msg_type:#x}")
        except NotLeaderError as exc:
            hint = exc.leader_hint or str(self.config.leader_node)
            return wire.encode_err(wire.ERR_NOT_LEADER, f"not leader; try node {hint}")
        except LogStoreError as exc:
            return wire.encode_err(wire.ERR_INTERNAL, str(exc))

    def _client_modify(self, kind: int, key: bytes, value: bytes) -> bytes:
        pid = route(key, self.config.partitions)
        replica = self.replicas[pid]
        if replica.role != ROLE_LEADER:
            return wire.encode_err(
                wire.ERR_NOT_LEADER, f"not leader; try node {self.config.leader_node}"
            )
        future = _Future()
        with self.locks[pid]:
            if len(replica.pending_exec) >= self.config.queue_depth:
                return wire.encode_err(wire.ERR_BACKPRESSURE, "partition queue full; retry")
            lsn = replica.dispatch(kind, key, value, token=future)
            self.futures[(pid, lsn)] = future
            self._ship(pid)  # replicate in parallel with local commit
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
        replica = self.replicas[pid]
        future = _Future()

        def work():
            partition = self.store.partitions[pid]
            with self.locks[pid]:
                if replica.role == ROLE_LEADER or view_lsn == 0:
                    future.resolve(partition.get(key))
                    return
                decision = replica.read_gate(view_lsn)
                if decision.action == GATE_SERVE:
                    future.resolve(partition.get(key))
                elif decision.action == GATE_REJECT:
                    future.fail(wire.ERR_REJECTED, "view lsn beyond log")
                else:
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

    def _client_read(self, _pid, fn) -> bytes:
        # cross-partition reads (range, batch-get) fan out through each
        # partition executor; serialized here per partition via the locks
        done = _Future()

        def work():
            with _AllLocks(self.locks):
                done.resolve(fn())

        first = next(iter(self.queues.values()))
        first.put(("work", work))
        if not done.event.wait(timeout=10.0):
            return wire.encode_err(wire.ERR_TIMEOUT, "read timeout")
        return done.result

    def _client_promote(self, pid: int) -> bytes:
        replica = self.replicas[pid]
        peer_flushed = self._probe_peer_flushed(pid)
        with self.locks[pid]:
            replica.promote(peer_flushed)
        self.config.leader_node = self.config.node_id
        self._start_heartbeat()
        with self.locks[pid]:
            self._ship(pid)
        return wire.encode_ok(lsn=replica.state.flushed)

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


class _AllLocks:
    def __init__(self, locks: dict[int, threading.RLock]):
        self.locks = [locks[k] for k in sorted(locks)]

    def __enter__(self):
        for lock in self.locks:
            lock.acquire()

    def __exit__(self, *exc):
        for lock in reversed(self.locks):
            lock.release()
