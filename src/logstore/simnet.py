"""Deterministic in-process cluster simulation.

All correctness tests for replication run here: a seeded discrete-event
transport with programmable delay, drop and duplication (FIFO per link, as a
TCP connection would be), plus a simple executor-time model so pipelining and
multi-partition parallelism are observable in simulated time.  Each node
drives the same `replication.ReplicationCore` the event-loop server drives,
over the real engine, and nodes exchange real wire frames.

A dropped frame is what loses frames over TCP, a dropped connection: both
cores hear `link_down`, what the connection carried is lost, and both hear
`link_up` a few link delays later, so the leader resends from the peer's ack.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from . import wire
from .engine import Store, route
from .errors import ReadRejectedError
from .replication import (
    GATE_REJECT,
    GATE_SERVE,
    ROLE_FOLLOWER,
    ROLE_LEADER,
    PendingOp,
    ReplicationCore,
    freshness_score,
)
from .wal import KIND_DELETE, KIND_PUT


@dataclass
class LinkConfig:
    delay: float = 0.001
    jitter: float = 0.0
    drop_prob: float = 0.0
    dup_prob: float = 0.0


@dataclass
class ExecModel:
    """Simulated executor service time (seconds)."""

    per_record: float = 0.0001
    batch_overhead: float = 0.0002


class SimTransport:
    def __init__(self, seed: int = 0):
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.rng = random.Random(seed)

    def schedule_at(self, when: float, fn: Callable[[], None]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (max(when, self.now), self._seq, fn))

    def run(self, until: float | None = None) -> None:
        while self._heap:
            when, _, fn = self._heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._heap)
            self.now = max(self.now, when)
            fn()
        if until is not None:
            self.now = max(self.now, until)

    def pending(self) -> int:
        return len(self._heap)


@dataclass
class SimTicket:
    kind: int
    key: bytes
    value: bytes
    lsn: int = 0
    done: bool = False
    result: Any = None


class SimNode:
    """One simulated node: drives its replication core in simulated time."""

    def __init__(self, cluster: "SimCluster", node_id: int, store: Store,
                 role: str, peer_ids: list[int], max_batch: int):
        self.cluster = cluster
        self.node_id = node_id
        self.store = store
        self.core = ReplicationCore(
            store, node_id, peer_ids, role, max_batch,
            send=lambda peer, frame: cluster.send(node_id, peer, frame),
            deliver=self._deliver,
        )
        self.replicas = self.core.replicas
        self.dead = False
        self.exec_busy: dict[int, float] = {}
        self.exec_scheduled: dict[int, bool] = {}

    def handle_frame(self, src: int, frame: bytes, conn: int) -> None:
        if self.dead:
            return
        msg_type, payload, _ = wire.decode_frame(frame)
        if msg_type == wire.MSG_APPEND_ENTRIES:
            self._on_append_entries(src, wire.AppendEntries.decode(payload), conn)
        elif msg_type in (wire.MSG_APPEND_ACK, wire.MSG_APPEND_NACK):
            self.cluster.in_flight[(self.node_id, src)] -= 1
            self.core.handle_ack(wire.AppendAck.decode(payload, msg_type))
        else:  # pragma: no cover - no other frames cross the sim transport
            raise ValueError(f"unexpected frame type {msg_type:#x}")

    def _on_append_entries(self, src: int, msg: wire.AppendEntries, conn: int) -> None:
        """Follower side: the append takes executor time, then answers on `conn`."""
        def apply() -> None:
            if not self.dead:
                answer = self.core.append(msg)
                if answer is not None:
                    self.cluster.send(self.node_id, src, answer, conn)

        self._run_on_executor(msg.partition, len(msg.records), apply)

    def _run_on_executor(self, pid: int, records: int, fn: Callable[[], None]) -> None:
        """Run `fn` once the partition's executor has served `records` records."""
        model = self.cluster.exec_model
        start = max(self.cluster.transport.now, self.exec_busy.get(pid, 0.0))
        self.exec_busy[pid] = start + model.batch_overhead + records * model.per_record
        self.cluster.transport.schedule_at(self.exec_busy[pid], fn)

    def submit(self, kind: int, key: bytes, value: bytes) -> SimTicket:
        pid = route(key, len(self.store.partitions))
        ticket = SimTicket(kind, key, value)
        ticket.lsn = self.core.write(pid, kind, key, value, ticket)
        self.kick_executor(pid)
        return ticket

    def kick_executor(self, pid: int) -> None:
        replica = self.replicas[pid]
        if self.exec_scheduled.get(pid) or not replica.pending_exec:
            return
        self.exec_scheduled[pid] = True
        k = min(len(replica.pending_exec), replica.max_batch)

        def finish() -> None:
            self.exec_scheduled[pid] = False
            if self.dead:
                return
            self.core.execute(pid, k)
            self.kick_executor(pid)

        self._run_on_executor(pid, k, finish)

    def _deliver(self, pid: int, reply: PendingOp) -> None:
        ticket = reply.token
        ticket.done = True
        ticket.result = reply.result
        if self.cluster.on_reply is not None:
            self.cluster.on_reply(self, pid, reply.lsn)


class SimCluster:
    """N nodes x P partitions over the simulated transport."""

    def __init__(
        self,
        root_dir: Path | str,
        nodes: int = 3,
        partitions: int = 1,
        seed: int = 0,
        link: LinkConfig | None = None,
        exec_model: ExecModel | None = None,
        leader_node: int = 0,
        max_batch: int = 64,
        cache_bytes: int = 16 * 1024 * 1024,
        segment_bytes: int = 64 * 1024 * 1024,
    ):
        self.root_dir = Path(root_dir)
        self.link = link if link is not None else LinkConfig()
        self.exec_model = exec_model if exec_model is not None else ExecModel()
        self.transport = SimTransport(seed)
        self.leader_map = {pid: leader_node for pid in range(partitions)}
        self.on_reply: Callable | None = None
        # AppendEntries with records sent on each (src, dst) link, not yet answered
        self.in_flight: Counter[tuple[int, int]] = Counter()
        self.max_in_flight: Counter[tuple[int, int]] = Counter()
        self._link_clock: dict[tuple[int, int], float] = {}
        # per node pair: the number of its connection, raised when one drops
        self.conn: Counter[frozenset[int]] = Counter()
        self.nodes: dict[int, SimNode] = {}
        for nid in range(nodes):
            store = Store(
                self.root_dir / f"node_{nid}",
                partitions=partitions,
                cache_bytes=cache_bytes,
                seed=seed + nid,
                segment_bytes=segment_bytes,
            )
            role = ROLE_LEADER if nid == leader_node else ROLE_FOLLOWER
            peers = [p for p in range(nodes) if p != nid]
            self.nodes[nid] = SimNode(self, nid, store, role, peers, max_batch)

    # -- transport glue ----------------------------------------------------

    def send(self, src: int, dst: int, frame: bytes, conn: int | None = None) -> None:
        """Put `frame` on connection `conn`, by default the current one.  Only
        an answer can go to a dropped one: a down link's cores send nothing."""
        pair = frozenset((src, dst))
        if self.nodes[src].dead or self.nodes[dst].dead or conn not in (None, self.conn[pair]):
            return
        rng = self.transport.rng
        if self.link.drop_prob and rng.random() < self.link.drop_prob:
            self._drop_connection(src, dst)
            return
        # the frame's type byte, and the record count that ends the AppendEntries header
        if frame[4] == wire.MSG_APPEND_ENTRIES and any(frame[25:29]):
            link = (src, dst)
            self.in_flight[link] += 1
            self.max_in_flight[link] = max(self.max_in_flight[link], self.in_flight[link])
        conn = self.conn[pair]
        copies = 2 if self.link.dup_prob and rng.random() < self.link.dup_prob else 1
        for _ in range(copies):
            delay = self.link.delay
            if self.link.jitter:
                delay += rng.uniform(0, self.link.jitter)
            # FIFO per link, like a TCP connection: never deliver out of order
            at = max(self.transport.now + delay, self._link_clock.get((src, dst), 0.0))
            self._link_clock[(src, dst)] = at
            self.transport.schedule_at(at, lambda f=frame: self._arrive(src, dst, f, conn))

    def _arrive(self, src: int, dst: int, frame: bytes, conn: int) -> None:
        if self.conn[frozenset((src, dst))] == conn:
            self.nodes[dst].handle_frame(src, frame, conn)

    def _drop_connection(self, a: int, b: int) -> None:
        """Cut the pair both ways, losing what is in flight; reconnect a few
        link delays later, unless a node is dead by then."""
        self.conn[frozenset((a, b))] += 1
        self.in_flight[(a, b)] = self.in_flight[(b, a)] = 0
        self.nodes[a].core.link_down(b)
        self.nodes[b].core.link_down(a)

        def reconnect() -> None:
            if not (self.nodes[a].dead or self.nodes[b].dead):
                self.nodes[a].core.link_up(b)
                self.nodes[b].core.link_up(a)

        self.transport.schedule_at(self.transport.now + 3 * self.link.delay, reconnect)

    # -- client operations ----------------------------------------------------

    def leader_for(self, key: bytes) -> SimNode:
        pid = route(key, len(self.leader_map))
        return self.nodes[self.leader_map[pid]]

    def put(self, key: bytes, value: bytes) -> SimTicket:
        return self.leader_for(key).submit(KIND_PUT, key, value)

    def delete(self, key: bytes) -> SimTicket:
        return self.leader_for(key).submit(KIND_DELETE, key, b"")

    def get(self, key: bytes, node_id: int | None = None) -> bytes | None:
        node = self.leader_for(key) if node_id is None else self.nodes[node_id]
        return node.store.get(key)

    def read_follower(
        self, node_id: int, key: bytes, read_view_lsn: int, timeout: float = 5.0
    ) -> bytes | None:
        """Follower read through the freshness gate; pumps while blocked."""
        node = self.nodes[node_id]
        pid = route(key, len(node.store.partitions))
        deadline = self.transport.now + timeout
        while True:
            action = node.core.gate({pid: read_view_lsn})
            if action == GATE_REJECT:
                raise ReadRejectedError(f"view lsn {read_view_lsn} beyond log")
            if action == GATE_SERVE:
                return node.core.replicas[pid].partition.get(key)
            if self.transport.now >= deadline or not self.transport.pending():
                raise ReadRejectedError("read gate timeout")
            self.step()

    # -- control -----------------------------------------------------------------

    def step(self) -> None:
        """Deliver exactly the next simulated event."""
        if self.transport._heap:
            when = self.transport._heap[0][0]
            self.transport.run(until=when)

    def run(self, until: float | None = None) -> None:
        self.transport.run(until)

    def run_idle(self) -> None:
        self.transport.run()

    def crash(self, node_id: int) -> None:
        """Kill a node; the links to it drop, as TCP connections would."""
        self.nodes[node_id].dead = True
        for node in self.nodes.values():
            node.core.link_down(node_id)

    def promote(self, node_id: int, partition: int) -> None:
        node = self.nodes[node_id]
        peer_flushed = {
            nid: other.replicas[partition].state.flushed
            for nid, other in self.nodes.items()
            if nid != node_id and not other.dead
        }
        node.core.take_over(partition, peer_flushed)
        self.leader_map[partition] = node_id

    def freshness(self, partition: int, follower: int) -> float:
        leader = self.nodes[self.leader_map[partition]]
        blsn = self.nodes[follower].replicas[partition].state.flushed
        plsn = leader.replicas[partition].state.flushed
        return freshness_score(blsn, plsn)

    def close(self) -> None:
        for node in self.nodes.values():
            node.store.close()
