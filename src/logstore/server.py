"""TCP node: one event loop serves the client API and the replication links.

One thread runs a `selectors` loop that owns every socket and partition and
makes every `replication.ReplicationCore` call, so nothing is locked and no
request crosses a thread.  A turn reads every ready socket and handles each
complete frame in it (a connection may pipeline; replies keep request order),
serves reads inline, dispatches writes, runs the due timers, then executes
every partition with pending ops, so one group flush covers every writer of
the turn.  Peer links connect lazily without blocking; while one is down its
frames are dropped, and once it is back the core resends what was not acked.
A leader sends a commit point to its followers in the turn it moves, so a
gated follower read at an LSN a client was just acked does not wait for the
next write.

The leader's group flush is the one thing the loop does not do itself: it
hands a duplicate descriptor to a flusher thread, which fsyncs it and wakes
the loop, and the writes it covers commit then.  Reads and other writers are
served meanwhile, so a slow sync stalls only the writers it covers.  One sync
per partition is in flight at a time; what is appended during it goes with
the next.  A follower syncs inline: its ack is on every write's path.
"""

from __future__ import annotations

import errno
import heapq
import itertools
import logging
import os
import selectors
import socket
import threading
import time
from collections import deque
from functools import partial

from . import wire
from .client import Client
from .config import NodeConfig
from .engine import Store, route
from .errors import LogStoreError, NotLeaderError
from .recovery import recover_store
from .replication import (GATE_BLOCK, GATE_REJECT, HEARTBEAT_INTERVAL, ROLE_FOLLOWER,
                          ROLE_LEADER, ReplicationCore)
from .wal import KIND_DELETE, KIND_PUT

log = logging.getLogger("logstore.server")

READ_GATE_TIMEOUT = 5.0
PEER_RETRY = 0.1  # seconds between connect attempts to a peer whose link dropped
RECV_BYTES = 256 * 1024
LOOP_THREAD = "logstore-loop"
FLUSH_THREAD = "logstore-flush"
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class _Conn:
    """A socket and its buffers: an accepted connection, or the link to `peer`.
    `slots` holds a cell per request not yet answered, in request order."""

    __slots__ = ("sock", "peer", "inbuf", "out", "slots", "events", "connected", "dead",
                 "acked")

    def __init__(self, sock: socket.socket, peer: int | None = None):
        self.sock, self.peer = sock, peer
        self.inbuf, self.out = bytearray(), bytearray()
        self.slots: deque[list] = deque()
        self.connected = peer is None
        self.events = _READ if self.connected else _WRITE
        self.dead = False
        self.acked: dict[int, bytes] = {}  # partition -> last ack frame sent on it


def _is_client(conn: _Conn) -> bool:
    return conn.peer is None


class ServerNode:
    def __init__(self, config: NodeConfig):
        self.config = config
        self.stopped = False
        self.store: Store = recover_store(
            config.data_dir, config.partitions, cache_bytes=config.cache_bytes,
            cooling_fraction=config.cooling_fraction, seed=config.seed,
            flush_policy=config.flush_policy, segment_bytes=config.segment_bytes,
        )
        role = ROLE_LEADER if config.node_id == config.leader_node else ROLE_FOLLOWER
        self.core = ReplicationCore(
            self.store, config.node_id, config.peers, role, config.max_batch,
            send=self._send, deliver=self._deliver,
        )
        self.replicas = self.core.replicas
        # parked gated reads per partition: (conn, slot, key, view_lsn, deadline)
        self.blocked_reads: dict[int, list[tuple]] = {pid: [] for pid in self.replicas}
        self.links: dict[int, _Conn | None] = dict.fromkeys(config.peers)
        self._owed: set[int] = set()    # peers whose frames were dropped while down
        self._dirty: set[int] = set()   # partitions with writes dispatched this turn
        self._committed: set[int] = set()  # partitions whose commit point moved this turn
        self._syncing: set[int] = set()     # partitions with a sync on the flusher
        self._jobs: deque[tuple] = deque()  # (pid, lsn, fd) for the flusher
        self._done: deque[tuple] = deque()  # (pid, lsn, or None if it failed) back
        # connections with bytes to write, in a fixed order (a set would order
        # them by address, so which follower hears a frame first would change
        # from run to run)
        self._outq: dict[_Conn, None] = {}
        self._timers: list[tuple] = []  # heap of (when, seq, fn)
        self._seq = itertools.count()
        self.listener: socket.socket | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        # listen before returning; the loop's first select already watches it
        self.listener = socket.create_server(self.config.addr_tuple(), backlog=64)
        self.listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._sel = selectors.DefaultSelector()
        self._sel.register(self.listener, _READ, self._accept)
        self._sel.register(self._wake_r, _READ, self._on_wake)
        self._flush_r, self._flush_w = socket.socketpair()
        self._at(time.monotonic() + HEARTBEAT_INTERVAL, self._heartbeat)
        self._flusher = threading.Thread(target=self._flush_loop, name=FLUSH_THREAD,
                                         daemon=True)
        self._flusher.start()
        self._thread = threading.Thread(target=self._run, name=LOOP_THREAD, daemon=True)
        self._thread.start()
        log.info("node %d listening on port %d", self.config.node_id, self.port)

    def stop(self) -> None:
        self.stopped = True
        if self._thread is not None:
            self._wake_w.send(b"\0")
            self._thread.join()
            self._thread = None
            self._flush_w.close()  # the flusher syncs what it holds, then exits
            self._flusher.join()
            self._flush_r.close()
            self._wake_w.close()
        for partition in self.store.partitions:
            partition.flush()
            partition.checkpoint()
        self.store.close()

    @property
    def port(self) -> int:
        return self.listener.getsockname()[1]

    # -- the loop -----------------------------------------------------------

    def _run(self) -> None:
        try:
            while not self.stopped:
                try:
                    self._turn()
                except Exception:  # the loop is the node: report and keep serving
                    log.exception("node %d: loop turn failed", self.config.node_id)
        finally:
            for key in list(self._sel.get_map().values()):
                key.fileobj.close()
            self._sel.close()

    def _turn(self) -> None:
        timers = self._timers
        for key, events in self._sel.select(max(0.0, timers[0][0] - time.monotonic())):
            conn = key.data
            if conn.__class__ is not _Conn:
                conn()  # accept, or drain the wake-up socket
            elif events & _WRITE and not conn.connected:
                self._link_up(conn)
            else:
                if events & _WRITE:
                    self._outq[conn] = None
                if events & _READ:
                    self._read(conn)
        now = time.monotonic()
        while timers[0][0] <= now:
            heapq.heappop(timers)[2]()
        if self._dirty:
            self._flush_out()  # replication frames leave before the local fsync
            dirty, self._dirty = self._dirty, set()
            for pid in dirty:
                self._execute(pid)
        if self._committed:
            # tell the followers now, not with the next write or heartbeat: a
            # gated read at the LSN just acked would otherwise wait for the
            # writer's next request, and its latency would follow that timing
            committed, self._committed = self._committed, set()
            for pid in committed:
                self.core.ship(pid, heartbeat=True)
        self._flush_out()

    def _at(self, when: float, fn) -> None:
        heapq.heappush(self._timers, (when, next(self._seq), fn))

    def _heartbeat(self) -> None:
        self._at(time.monotonic() + HEARTBEAT_INTERVAL, self._heartbeat)
        for pid in self.replicas:
            self.core.ship(pid, heartbeat=True)

    def _execute(self, pid: int) -> None:
        while self.replicas[pid].pending_exec:
            self.core.execute(pid, sync=False)  # one batch; it commits once synced
        self._sync(pid)

    # -- the leader's group flush, on the flusher thread ---------------------

    def _sync(self, pid: int) -> None:
        """Hand the partition's group flush to the flusher, one at a time."""
        if pid in self._syncing:
            return  # what was appended since goes with the next sync
        replica = self.replicas[pid]
        lsn = replica.log_end
        fd = replica.partition.store.take_sync()
        if fd is None:  # nothing to sync
            self._synced(pid, lsn)
            return
        self._syncing.add(pid)
        self._jobs.append((pid, lsn, fd))
        self._flush_w.send(b"\0")

    def _flush_loop(self) -> None:
        """The flusher thread: fsync each descriptor handed over, then wake the
        loop.  It touches no other state; `deque` appends and pops are atomic."""
        while True:
            more = self._flush_r.recv(64)
            while self._jobs:
                pid, lsn, fd = self._jobs.popleft()
                try:
                    os.fsync(fd)
                except OSError:
                    log.exception("node %d: partition %d sync failed",
                                  self.config.node_id, pid)
                    lsn = None
                finally:
                    os.close(fd)
                self._done.append((pid, lsn))
            if not more:
                return
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # the loop has stopped

    def _on_wake(self) -> None:
        self._wake_r.recv(4096)
        self._take_done()

    def _take_done(self) -> None:
        while self._done:
            pid, lsn = self._done.popleft()
            self._syncing.discard(pid)
            if lsn is None:  # the disk failed: the partition takes no more writes
                self.replicas[pid].partition.store.read_only = True
            else:
                self._synced(pid, lsn)

    def _synced(self, pid: int, lsn: int) -> None:
        self.core.synced(pid, lsn)
        replica = self.replicas[pid]
        if replica.log_end > replica.state.flushed:
            self._sync(pid)

    def _settle(self, pid: int) -> None:
        """Make the whole local log of `pid` durable now (promotion needs it)."""
        while pid in self._syncing:
            self._wake_r.recv(4096)  # blocks until the flusher reports
            self._take_done()
        self.replicas[pid].partition.flush()
        self._synced(pid, self.replicas[pid].log_end)

    # -- sockets ------------------------------------------------------------

    def _adopt(self, sock: socket.socket, peer: int | None = None) -> _Conn:
        sock.setblocking(False)
        # frames are small and each turn writes whole ones: Nagle would hold a
        # second frame to a follower until the first one's TCP ack
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = _Conn(sock, peer)
        self._sel.register(sock, conn.events, conn)
        return conn

    def _accept(self) -> None:
        try:
            self._adopt(self.listener.accept()[0])
        except BlockingIOError:
            pass

    def _read(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._lost(conn)
            return
        buf = conn.inbuf
        buf += data
        pos = 0
        try:
            while len(buf) - pos >= 4 and not conn.dead:
                length = int.from_bytes(buf[pos:pos + 4], "little")
                if not length:
                    raise ValueError("frame without a type byte")
                end = pos + 4 + length
                if end > len(buf):
                    break
                self._handle(conn, buf[pos + 4], bytes(buf[pos + 5:end]))
                pos = end
        except Exception:  # a malformed frame costs its connection, not the node
            log.exception("node %d: dropping a connection", self.config.node_id)
            self._lost(conn)
        del buf[:pos]  # keep only a partial frame: select never reports read bytes again

    def _reply(self, conn: _Conn, frame: bytes, slot: list) -> None:
        """Fill `slot`, then write out every answered request at the head of `conn`."""
        slot[0] = frame
        slots = conn.slots
        while slots and slots[0][0] is not None:
            conn.out += slots.popleft()[0]
        self._outq[conn] = None

    def _flush_out(self) -> None:
        outq, self._outq = self._outq, {}
        if self.links:
            # peer links first: a follower hears a commit point before the
            # client whose write it commits can ask that follower to read at it
            outq = sorted(outq, key=_is_client)
        for conn in outq:
            if conn.dead or not conn.connected:
                continue
            try:
                del conn.out[:conn.sock.send(conn.out)]
            except BlockingIOError:
                pass
            except OSError:
                self._lost(conn)
                continue
            events = _READ | _WRITE if conn.out else _READ
            if events != conn.events:
                self._sel.modify(conn.sock, events, conn)
                conn.events = events

    def _lost(self, conn: _Conn) -> None:
        """Close `conn`; a peer link is retried, and its frames are owed again."""
        if conn.dead:
            return
        conn.dead = True
        self._sel.unregister(conn.sock)
        conn.sock.close()
        if conn.peer is not None:
            self.links[conn.peer] = None
            self._owed.add(conn.peer)
            self._at(time.monotonic() + PEER_RETRY, partial(self._connect, conn.peer))

    # -- peer links ---------------------------------------------------------

    def _send(self, peer: int, frame: bytes) -> None:
        """The core's send hook: buffer on a live link, drop while it is down."""
        if self.links[peer] is None and peer not in self._owed:
            self._connect(peer)  # first contact: buffer while connecting
        link = self.links[peer]
        if link is None or peer in self._owed:
            self._owed.add(peer)
        else:
            link.out += frame
            self._outq[link] = None

    def _connect(self, peer: int) -> None:
        if self.links[peer] is None and not self.stopped:
            # never blocks; the kernel's SYN retries bound an unanswered connect
            link = self.links[peer] = self._adopt(socket.socket(), peer)
            addr = self.config.addr_tuple(self.config.peers[peer])
            if link.sock.connect_ex(addr) not in (0, errno.EINPROGRESS):
                self._lost(link)

    def _link_up(self, link: _Conn) -> None:
        if link.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
            self._lost(link)
            return
        link.connected = True
        self._outq[link] = None
        if link.peer in self._owed:
            self._owed.discard(link.peer)
            for pid in self.replicas:
                self.core.rewind(pid, link.peer)
                self.core.ship(pid)

    # -- frames -------------------------------------------------------------

    def _handle(self, conn: _Conn, msg_type: int, payload: bytes) -> None:
        if conn.peer is not None:  # a follower answers only with acks and nacks
            if msg_type in (wire.MSG_APPEND_ACK, wire.MSG_APPEND_NACK):
                self.core.handle_ack(wire.AppendAck.decode(payload, msg_type))
            return
        slot = [None]  # this request's place in the reply order
        conn.slots.append(slot)
        try:
            frame = self._serve(conn, slot, msg_type, payload)
        except NotLeaderError:
            frame = wire.encode_err(
                wire.ERR_NOT_LEADER, f"not leader; try node {self.config.leader_node}")
        except LogStoreError as exc:
            frame = wire.encode_err(wire.ERR_INTERNAL, str(exc))
        if frame is not None:
            self._reply(conn, frame, slot)

    def _serve(self, conn: _Conn, slot: list, msg_type: int, payload: bytes) -> bytes | None:
        """The reply to one request; None when it comes later."""
        if msg_type == wire.MSG_APPEND_ENTRIES:
            msg = wire.AppendEntries.decode(payload)
            ack = self.core.append(msg)
            self._drain_blocked_reads(msg.partition)
            # acks and nacks are cumulative and the stream is ordered: an answer
            # the leader already has from this connection (the ack of a
            # commit-only frame, say) tells it nothing
            if ack == conn.acked.get(msg.partition):
                return b""
            conn.acked[msg.partition] = ack
            return ack
        if msg_type in (wire.MSG_PUT, wire.MSG_DELETE):
            if msg_type == wire.MSG_PUT:
                kind, (key, value) = KIND_PUT, wire.decode_put(payload)
            else:
                kind, key, value = KIND_DELETE, wire.decode_delete(payload), b""
            pid = route(key, self.config.partitions)
            if len(self.replicas[pid].pending_exec) >= self.config.queue_depth:
                return wire.encode_err(wire.ERR_BACKPRESSURE, "partition queue full; retry")
            self.core.write(pid, kind, key, value, (conn, slot))
            self._dirty.add(pid)
            return None
        for pid in self._dirty:  # a read sees every write dispatched before it
            self._execute(pid)
        if msg_type == wire.MSG_GET:
            key, view_lsn = wire.decode_get(payload)
            pid = route(key, self.config.partitions)
            if not self._answer_read(conn, slot, pid, key, view_lsn):
                deadline = time.monotonic() + READ_GATE_TIMEOUT
                self.blocked_reads[pid].append((conn, slot, key, view_lsn, deadline))
                self._at(deadline, partial(self._drain_blocked_reads, pid))
            return None
        if msg_type == wire.MSG_RANGE:
            start, end, limit = wire.decode_range(payload)
            return wire.encode_range_result(self.store.range(start, end, limit or None))
        if msg_type == wire.MSG_BATCH_GET:
            return wire.encode_batch_result(self.store.batch_get(wire.decode_batch_get(payload)))
        if msg_type == wire.MSG_STATS:
            return wire.encode_stats_result(self._stats_text())
        if msg_type == wire.MSG_PROMOTE:
            pid = wire.decode_promote(payload)
            self._settle(pid)
            self.core.take_over(pid, self._probe_peer_flushed(pid))
            self.config.leader_node = self.config.node_id
            return wire.encode_ok(lsn=self.replicas[pid].state.flushed)
        return wire.encode_err(wire.ERR_BAD_REQUEST, f"unknown type {msg_type:#x}")

    def _deliver(self, pid: int, reply) -> None:
        """The core's deliver hook: a write committed (a PUT's result is its LSN)."""
        conn, slot = reply.token
        self._reply(conn, wire.encode_ok(lsn=reply.lsn, flag=bool(reply.result)), slot)
        self._committed.add(pid)

    def _answer_read(self, conn: _Conn, slot: list, pid: int, key: bytes, view_lsn: int) -> bool:
        """Serve or reject a gated read; False when it must wait."""
        value = self.core.read(pid, key, view_lsn)
        if value is GATE_BLOCK:
            return False
        if value is GATE_REJECT:
            self._reply(conn, wire.encode_err(wire.ERR_REJECTED, "view lsn beyond log"), slot)
        else:
            self._reply(conn, wire.encode_value(value), slot)
        return True

    def _drain_blocked_reads(self, pid: int) -> None:
        now = time.monotonic()
        still_blocked = []
        for read in self.blocked_reads[pid]:
            conn, slot, key, view_lsn, deadline = read
            if self._answer_read(conn, slot, pid, key, view_lsn):
                continue
            if now >= deadline:
                self._reply(conn, wire.encode_err(wire.ERR_TIMEOUT, "read gate timeout; retry"),
                            slot)
            else:
                still_blocked.append(read)
        self.blocked_reads[pid] = still_blocked

    def _probe_peer_flushed(self, pid: int) -> dict[int, int]:
        """Best-effort STATS probe of each peer; unreachable peers are skipped.
        It holds the loop up to 0.5 s a peer: promotion is an operator action."""
        out: dict[int, int] = {}
        for peer_id, addr in self.config.peers.items():
            try:
                with Client(*self.config.addr_tuple(addr), timeout=0.5) as client:
                    text = client.stats()
            except (OSError, LogStoreError):
                continue
            for line in text.splitlines():
                fields = dict(kv.split("=") for kv in line.split())
                if int(fields["partition"]) == pid:
                    out[peer_id] = int(fields["flushed"])
        return out

    def _stats_text(self) -> str:
        return "\n".join(
            f"partition={pid} role={r.role} epoch={r.epoch} flushed={r.state.flushed} "
            f"potential_commit={r.state.potential_commit} replayed={r.state.replayed} "
            f"live_keys={r.partition.index.size} "
            f"cache_hit_ratio={r.partition.cache.stats()['hit_ratio']:.4f}"
            for pid, r in self.replicas.items()
        )
