"""Per-partition raft-like log replication.

The leader pipeline is split into independent stages connected only by LSN
cursors: dispatch (assigns the channel LSN), the executor (applies batches
locally and group-flushes), the send stage (ships contiguous record batches
to each follower, pipelined — it never waits for acks), the ack stage
(cumulative per-node high-water marks), and the reply stage (quorum test).
Followers append, group-flush, and maintain the index immediately; "replay"
is index upkeep only, which is what keeps standby freshness near 1.

A leader holds a write in memory only until its reply; every older record a
peer needs is read back from the log, as a Raft leader resends by nextIndex.

Commit points piggyback on every AppendEntries; when one moves, a peer that
has all it was sent acked or committed gets a commit-only one, which draws no
answer.  No heartbeat: promotion is manual, and a link loses frames only by
dropping, after which `ReplicationCore.link_up` resends what was not acked.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Callable, Iterable

from . import wire
from .engine import Partition, Store
from .errors import LogStoreError, NotLeaderError, PromotionRefusedError
from .wal import KIND_PUT, LogRecord

ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"

GATE_SERVE = "serve"
GATE_BLOCK = "block"
GATE_REJECT = "reject"


@dataclass
class LsnState:
    """potential_commit <= flushed, both monotone."""

    flushed: int = 0
    potential_commit: int = 0

    def check(self) -> None:
        assert 0 <= self.potential_commit <= self.flushed, self


@dataclass
class PendingOp:
    lsn: int
    kind: int
    key: bytes
    value: bytes
    token: Any
    result: Any = None  # set by the executor: a PUT's LSN, a DELETE's "existed"


def freshness_score(blsn: int, plsn: int) -> float:
    """Follower frontier over leader frontier, clamped into [0, 1].

    An empty leader log scores 1.0; sampling skew can make blsn momentarily
    exceed plsn, hence the clamp.
    """
    if plsn <= 0:
        return 1.0
    return min(1.0, blsn / plsn)


class PartitionReplica:
    """One partition's replica state on one node (either role)."""

    def __init__(
        self,
        partition: Partition,
        node_id: int,
        cluster_size: int,
        role: str = ROLE_FOLLOWER,
        peer_ids: Iterable[int] = (),
        epoch: int = 1,
        max_batch: int = 64,
    ):
        self.partition = partition
        self.node_id = node_id
        self.quorum = cluster_size // 2 + 1
        self.role = role
        self.epoch = epoch
        self.max_batch = max_batch
        self.state = LsnState()
        flushed = partition.next_lsn - 1
        self.state.flushed = flushed
        if role == ROLE_LEADER:
            self.state.potential_commit = flushed if cluster_size == 1 else 0
        # leader-side channel bookkeeping
        self.next_lsn = flushed + 1
        self.pending_exec: deque[PendingOp] = deque()
        # every op not yet replied to, in LSN order, ending at next_lsn - 1
        self.records: deque[PendingOp] = deque()
        self.sent_to: dict[int, int] = {pid: flushed for pid in peer_ids}
        self.hwm: dict[int, int] = {pid: 0 for pid in peer_ids}
        self.last_sent_commit: dict[int, int] = {pid: 0 for pid in peer_ids}

    # ------------------------------------------------------------------
    # leader: dispatch and executor
    # ------------------------------------------------------------------

    def dispatch(self, kind: int, key: bytes, value: bytes, token: Any = None) -> int:
        """RequestDispatch: queue for the executor and the replication channel."""
        if self.role != ROLE_LEADER:
            raise NotLeaderError(f"partition {self.partition.partition_id}")
        lsn = self.next_lsn
        self.next_lsn += 1
        op = PendingOp(lsn, kind, key, value, token)
        self.pending_exec.append(op)
        self.records.append(op)
        return lsn

    def exec_batch(self, max_batch: int | None = None, sync: bool = True) -> list[PendingOp]:
        """ProcessTask: apply one drained batch, one group flush, local ack.

        With `sync` False the flush is the caller's: it makes the log durable
        and then calls `synced`, and until then the batch cannot commit.
        """
        limit = max_batch if max_batch is not None else self.max_batch
        batch = [self.pending_exec.popleft() for _ in range(min(limit, len(self.pending_exec)))]
        if not batch:
            return []
        for op in batch:
            if op.kind == KIND_PUT:
                op.result = self.partition.apply_put(op.key, op.value, op.lsn)
            else:
                _, op.result = self.partition.apply_delete(op.key, op.lsn)
        if sync:
            self.partition.flush()
            self.synced(batch[-1].lsn)
        return batch

    @property
    def log_end(self) -> int:
        """The last LSN in the local log, durable or not."""
        return self.partition.next_lsn - 1

    def synced(self, lsn: int) -> None:
        """Local ack: the leader's log is durable through `lsn`."""
        if lsn > self.state.flushed:
            self.state.flushed = lsn
            self._advance_commit()

    # ------------------------------------------------------------------
    # leader: send / ack / reply stages
    # ------------------------------------------------------------------

    def take_unsent(self, peer: int, max_records: int = 4096) -> list[LogRecord] | None:
        """Send stage: next contiguous unsent batch for `peer` (pipelined).

        Returns None when the peer is fully caught up; the caller packs the
        batch into a single AppendEntries message.  LSNs whose replies are
        out, below the in-memory window, come from the log.
        """
        start = self.sent_to[peer] + 1
        end = min(self.next_lsn - 1, start + max_records - 1)
        if start > end:
            return None
        base = self.next_lsn - len(self.records)
        if start < base:
            records = self._backfill(start, min(end, base - 1))
        else:
            records = [LogRecord(op.lsn, op.kind, op.key, op.value)
                       for op in islice(self.records, start - base, end - base + 1)]
        self.sent_to[peer] = records[-1].lsn
        return records

    def _backfill(self, start_lsn: int, end_lsn: int) -> list[LogRecord]:
        """Read LSNs `start_lsn`..`end_lsn` back from the unsorted segments
        that reach `start_lsn`, decoding no further than `end_lsn`."""
        store = self.partition.store
        ids = [sid for sid in store.unsorted_ids() if store.segments[sid].max_lsn >= start_lsn]
        out = []
        for record, _pos in chain.from_iterable(map(store.scan_segment, ids)):
            if record.lsn > end_lsn:
                break
            if record.lsn >= start_lsn:
                out.append(record)
        if not out or out[0].lsn != start_lsn:
            raise LogStoreError(f"cannot backfill lsn {start_lsn}: records compacted away")
        return out

    def reset_peer_cursor(self, peer: int, expected_lsn: int) -> None:
        """NACK handling: resend from the follower's real frontier."""
        self.sent_to[peer] = expected_lsn - 1

    def on_ack(self, peer: int, last_flushed_lsn: int) -> None:
        """Ack stage: cumulative ack — one LSN high-water mark per node."""
        if last_flushed_lsn > self.hwm[peer]:
            self.hwm[peer] = last_flushed_lsn
            # anything the follower already flushed never needs resending
            self.sent_to[peer] = max(self.sent_to[peer], last_flushed_lsn)
            self._advance_commit()

    def _advance_commit(self) -> None:
        """potential_commit = highest LSN durable on a quorum (incl. local)."""
        marks = sorted([self.state.flushed, *self.hwm.values()], reverse=True)
        candidate = marks[self.quorum - 1] if len(marks) >= self.quorum else 0
        candidate = min(candidate, self.state.flushed)
        if candidate > self.state.potential_commit:
            self.state.potential_commit = candidate

    def ready_replies(self) -> list[PendingOp]:
        """Reply stage: every op at or below the quorum commit point, which
        leaves memory with its reply (a commit implies it was executed)."""
        out = []
        while self.records and self.records[0].lsn <= self.state.potential_commit:
            out.append(self.records.popleft())
        return out

    # ------------------------------------------------------------------
    # follower
    # ------------------------------------------------------------------

    def handle_append_entries(
        self, epoch: int, leader_commit_lsn: int, records: list[LogRecord]
    ) -> tuple[str, int]:
        """Append + group flush + immediate index upkeep.

        Returns ("ack", last_flushed) or ("nack", expected_lsn).  Duplicate
        batches (resends) are idempotent; gaps request retransmission.
        """
        if epoch < self.epoch:
            return "nack", self.state.flushed + 1
        self.epoch = max(self.epoch, epoch)
        if records:
            first = records[0].lsn
            if first > self.state.flushed + 1:
                return "nack", self.state.flushed + 1
            applied = False
            for record in records:
                if record.lsn <= self.state.flushed:
                    continue  # duplicate from a resend
                self.partition.apply_record(record)
                applied = True
            if applied:
                self.partition.flush()
                self.state.flushed = records[-1].lsn
        commit = min(leader_commit_lsn, self.state.flushed)
        if commit > self.state.potential_commit:
            self.state.potential_commit = commit
        return "ack", self.state.flushed

    def read_gate(self, read_view_lsn: int) -> str:
        """Follower read admission for a client-provided view LSN: one of
        GATE_SERVE, GATE_BLOCK or GATE_REJECT.  Entries are indexed as they
        arrive (log-as-database), so a view at or below the commit point is
        served at once: there is no replay point to wait for."""
        st = self.state
        if read_view_lsn > st.flushed:
            return GATE_REJECT
        if read_view_lsn <= st.potential_commit:
            return GATE_SERVE
        return GATE_BLOCK

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------

    def promote(self, peer_flushed: dict[int, int]) -> None:
        """Role flip to leader; no replay pass, the index is already current.

        Refused when a reachable peer has a longer log.  `peer_flushed` maps
        the reachable peers to their flushed LSNs.  A leader stays as it is:
        its epoch, cursors and unanswered writes are kept.
        """
        if self.role == ROLE_LEADER:
            return
        for peer, flushed in peer_flushed.items():
            if flushed > self.state.flushed:
                raise PromotionRefusedError(
                    f"peer {peer} has flushed {flushed} > local {self.state.flushed}"
                )
        self.role = ROLE_LEADER
        self.epoch += 1
        self.next_lsn = self.state.flushed + 1
        # keep cursors for every known peer; an unreachable one counts as caught
        # up until its first nack rewinds the cursor to its real frontier
        peers = set(self.sent_to) | set(peer_flushed)
        self.sent_to = {pid: min(peer_flushed.get(pid, self.state.flushed),
                                 self.state.flushed) for pid in peers}
        self.hwm = {pid: peer_flushed.get(pid, 0) for pid in peers}
        self.last_sent_commit = {pid: 0 for pid in peers}
        self.pending_exec.clear()
        self.records.clear()
        self._advance_commit()


class ReplicationCore:
    """Every replication step of one node, for all of its partitions, no IO.

    The core owns the node's `PartitionReplica`s and talks to the world only
    through the two hooks its owner passes in: `send(peer, frame)` puts an
    encoded frame on the link to `peer`, and `deliver(partition, reply)`
    hands a committed write's `PendingOp` to whoever waits on its token.
    Its owners (`server.ServerNode`, `simnet.SimNode`) keep IO and time, and
    make at most one call per partition at a time.  The core alone decides
    what each peer is sent and when: it ships wherever the commit point can
    move, and it skips the peers whose link its owner reports down.
    """

    def __init__(self, store: Store, node_id: int, peer_ids: Iterable[int], role: str,
                 max_batch: int, send: Callable[[int, bytes], None],
                 deliver: Callable[[int, PendingOp], None]):
        self.send = send
        self.deliver = deliver
        self.down: set[int] = set()  # peers whose link dropped: shipped nothing
        peers = sorted(peer_ids)
        self.replicas = {
            pid: PartitionReplica(partition, node_id, len(peers) + 1, role=role,
                                  peer_ids=peers, max_batch=max_batch)
            for pid, partition in enumerate(store.partitions)
        }

    def write(self, pid: int, kind: int, key: bytes, value: bytes, token: Any) -> int:
        """Dispatch a client write and ship it in parallel with local commit."""
        lsn = self.replicas[pid].dispatch(kind, key, value, token)
        self.ship(pid)
        return lsn

    def execute(self, pid: int, max_batch: int | None = None, sync: bool = True) -> None:
        """One executor turn: apply a batch, ship it, deliver what committed.

        With `sync` False the batch waits for the caller's `synced` call.
        """
        self.replicas[pid].exec_batch(max_batch, sync)
        self.ship(pid)
        self._deliver_ready(pid)

    def synced(self, pid: int, lsn: int) -> None:
        """Leader: the log of `pid` is durable through `lsn`; deliver what commits."""
        self.replicas[pid].synced(lsn)
        self.ship(pid)
        self._deliver_ready(pid)

    def _deliver_ready(self, pid: int) -> None:
        for reply in self.replicas[pid].ready_replies():
            self.deliver(pid, reply)

    def append(self, msg: wire.AppendEntries) -> bytes | None:
        """Follower: apply an AppendEntries; returns the ack or nack frame, or
        None in place of a commit-only frame's ack, which repeats the last one."""
        replica = self.replicas[msg.partition]
        status, lsn = replica.handle_append_entries(
            msg.epoch, msg.leader_commit_lsn, msg.records
        )
        if status == "ack" and not msg.records:
            return None
        return wire.AppendAck(
            msg.partition, replica.epoch, replica.node_id, lsn,
            wire.MSG_APPEND_ACK if status == "ack" else wire.MSG_APPEND_NACK,
        ).encode()

    def handle_ack(self, ack: wire.AppendAck) -> None:
        """Leader: a nack rewinds the peer's cursor, an ack may commit.
        An answer from a node outside the cluster is ignored."""
        replica = self.replicas.get(ack.partition)
        if replica is None or replica.role != ROLE_LEADER or ack.node_id not in replica.hwm:
            return
        if ack.msg_type == wire.MSG_APPEND_NACK:
            replica.reset_peer_cursor(ack.node_id, ack.last_flushed_lsn)
        else:
            replica.on_ack(ack.node_id, ack.last_flushed_lsn)
            self._deliver_ready(ack.partition)
        self.ship(ack.partition)

    def ship(self, pid: int) -> None:
        """Send stage: push each live peer's next unsent batch, pipelined.

        A peer with nothing unsent that has not heard the commit point gets a
        commit-only AppendEntries once all it was sent is acked or committed.
        A peer with later records in flight is sent none: their ack calls
        `ship` again, so a stream of writes draws no commit-only frames.
        """
        replica = self.replicas[pid]
        if replica.role != ROLE_LEADER:
            return
        commit = replica.state.potential_commit
        for peer in replica.sent_to:
            if peer in self.down:
                continue
            records = replica.take_unsent(peer)
            if records is None:
                if (replica.last_sent_commit[peer] >= commit
                        or replica.sent_to[peer] > max(replica.hwm[peer], commit)):
                    continue
                records = []
            replica.last_sent_commit[peer] = commit
            self.send(peer, wire.AppendEntries(pid, replica.epoch, commit, records).encode())

    def link_down(self, peer: int) -> None:
        """The link to `peer` dropped: ship it nothing until `link_up`."""
        self.down.add(peer)

    def link_up(self, peer: int) -> None:
        """The link to `peer` is back: resend what it has not acked, and the
        commit point, which a restarted peer lost.  No-op on first contact."""
        if peer not in self.down:
            return
        self.down.discard(peer)
        for pid, replica in self.replicas.items():
            replica.reset_peer_cursor(peer, replica.hwm[peer] + 1)
            replica.last_sent_commit[peer] = 0
            self.ship(pid)

    def gate(self, views: dict[int, int]) -> str:
        """Admission of a read at a view of partition -> LSN: GATE_REJECT if
        one of its partitions rejects it, else GATE_BLOCK if one must wait,
        else GATE_SERVE.  A leader's partition, a view LSN of 0, or a
        partition this node does not hold serves at once."""
        action = GATE_SERVE
        for pid, view_lsn in views.items():
            replica = self.replicas.get(pid)
            if view_lsn and replica is not None and replica.role != ROLE_LEADER:
                step = replica.read_gate(view_lsn)
                if step == GATE_REJECT:
                    return step
                if step == GATE_BLOCK:
                    action = step
        return action

    def take_over(self, pid: int, peer_flushed: dict[int, int]) -> None:
        """Promote this node's replica of `pid` to leader and ship."""
        self.replicas[pid].promote(peer_flushed)
        self.ship(pid)
