"""Per-partition raft-like log replication.

The leader pipeline is split into independent stages connected only by LSN
cursors: dispatch (assigns the channel LSN), the executor (applies batches
locally and group-flushes), the send stage (ships contiguous record batches
to each follower, pipelined — it never waits for acks), the ack stage
(cumulative per-node high-water marks), and the reply stage (quorum test).
Followers append, group-flush, and maintain the index immediately; "replay"
is index upkeep only, which is what keeps standby freshness near 1.

Commit points piggyback on every AppendEntries message; an idle heartbeat
carries them when writes pause.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import takewhile
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

HEARTBEAT_INTERVAL = 0.050  # seconds; commit-point cadence when writes pause


@dataclass
class LsnState:
    """replayed <= potential_commit <= flushed, all monotone."""

    flushed: int = 0
    potential_commit: int = 0
    replayed: int = 0

    def check(self) -> None:
        assert 0 <= self.replayed <= self.potential_commit <= self.flushed, self


@dataclass
class PendingOp:
    lsn: int
    kind: int
    key: bytes
    value: bytes
    token: Any


@dataclass
class ReplyObject:
    lsn: int
    token: Any
    result: Any = None


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
            self.state.replayed = self.state.potential_commit
        # leader-side channel bookkeeping
        self.next_lsn = flushed + 1
        self.pending_exec: deque[PendingOp] = deque()
        self.records: dict[int, PendingOp] = {}
        self.sent_to: dict[int, int] = {pid: flushed for pid in peer_ids}
        self.hwm: dict[int, int] = {pid: 0 for pid in peer_ids}
        self.waiting_reply: deque[ReplyObject] = deque()
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
        self.records[lsn] = op
        return lsn

    def exec_batch(self, max_batch: int | None = None, sync: bool = True) -> list[ReplyObject]:
        """ProcessTask: apply one drained batch, one group flush, local ack.

        With `sync` False the flush is the caller's: it makes the log durable
        and then calls `synced`, and until then the batch cannot commit.
        """
        limit = max_batch if max_batch is not None else self.max_batch
        batch: list[PendingOp] = []
        while self.pending_exec and len(batch) < limit:
            batch.append(self.pending_exec.popleft())
        if not batch:
            return []
        replies = []
        for op in batch:
            if op.kind == KIND_PUT:
                self.partition.apply_put(op.key, op.value, op.lsn)
                result = op.lsn
            else:
                _, existed = self.partition.apply_delete(op.key, op.lsn)
                result = existed
            replies.append(ReplyObject(op.lsn, op.token, result))
        self.waiting_reply.extend(replies)
        if sync:
            self.partition.flush()
            self.synced(batch[-1].lsn)
        return replies

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
        batch into a single AppendEntries message.
        """
        start = self.sent_to[peer] + 1
        end = min(self.next_lsn - 1, start + max_records - 1)
        if start > end:
            return None
        records = []
        for lsn in range(start, end + 1):
            op = self.records.get(lsn)
            if op is None:
                records.extend(self._backfill(lsn, end))
                break
            records.append(LogRecord(op.lsn, op.kind, op.key, op.value))
        self.sent_to[peer] = records[-1].lsn
        return records

    def _backfill(self, start_lsn: int, end_lsn: int) -> list[LogRecord]:
        """Re-read pruned records from the local log (slow path: catch-up)."""
        found: dict[int, LogRecord] = {}

        def collect(record, _pos):
            if start_lsn <= record.lsn <= end_lsn:
                found[record.lsn] = record

        self.partition.store.replay_tail(collect, start_lsn=start_lsn)
        out = []
        for lsn in range(start_lsn, end_lsn + 1):
            record = found.get(lsn)
            if record is None:
                break
            out.append(record)
        if not out:
            raise LogStoreError(
                f"cannot backfill lsn {start_lsn}: records compacted away"
            )
        return out

    def reset_peer_cursor(self, peer: int, expected_lsn: int) -> None:
        """NACK handling: resend from the follower's real frontier."""
        self.sent_to[peer] = expected_lsn - 1

    def on_ack(self, peer: int, last_flushed_lsn: int) -> None:
        """Ack stage: cumulative ack — one LSN high-water mark per node."""
        if peer not in self.hwm:
            return  # unknown node; ignore
        if last_flushed_lsn > self.hwm[peer]:
            self.hwm[peer] = last_flushed_lsn
            # anything the follower already flushed never needs resending
            self.sent_to[peer] = max(self.sent_to[peer], last_flushed_lsn)
            self._advance_commit()

    def _advance_commit(self) -> None:
        """potential_commit = highest LSN durable on a quorum (incl. local).

        Every mark that can move the commit point can also raise the prune
        floor, so pruning runs here: a single-node leader, which never sees
        an ack, frees each batch once it is flushed.
        """
        marks = sorted([self.state.flushed, *self.hwm.values()], reverse=True)
        candidate = marks[self.quorum - 1] if len(marks) >= self.quorum else 0
        candidate = min(candidate, self.state.flushed)
        if candidate > self.state.potential_commit:
            self.state.potential_commit = candidate
            self.state.replayed = candidate  # leader index is always current
        self._prune_records()

    def _prune_records(self) -> None:
        """Free the ops every node has flushed; `records` is in LSN order."""
        floor = min([self.state.flushed, *self.hwm.values()])
        for lsn in list(takewhile(lambda lsn: lsn <= floor, self.records)):
            del self.records[lsn]

    def ready_replies(self) -> list[ReplyObject]:
        """Reply stage: everything at or below the quorum commit point."""
        out = []
        while self.waiting_reply and self.waiting_reply[0].lsn <= self.state.potential_commit:
            out.append(self.waiting_reply.popleft())
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
        # log-as-database: entries are indexed as they arrive, so advancing
        # replayed to the commit point is the entire replay phase
        if self.state.potential_commit > self.state.replayed:
            self.state.replayed = self.state.potential_commit
        return "ack", self.state.flushed

    def read_gate(self, read_view_lsn: int) -> str:
        """Follower read admission for a client-provided view LSN: one of
        GATE_SERVE, GATE_BLOCK or GATE_REJECT."""
        st = self.state
        if read_view_lsn > st.flushed:
            return GATE_REJECT
        if read_view_lsn < st.replayed:
            return GATE_SERVE
        if read_view_lsn <= st.potential_commit:
            st.replayed = st.potential_commit  # zero-cost "replay"
            return GATE_SERVE
        return GATE_BLOCK

    # ------------------------------------------------------------------
    # promotion
    # ------------------------------------------------------------------

    def promote(self, peer_flushed: dict[int, int]) -> None:
        """Role flip to leader; no replay pass, the index is already current.

        Refused when a reachable peer has a longer log.  `peer_flushed` maps
        the reachable peers to their flushed LSNs.
        """
        for peer, flushed in peer_flushed.items():
            if flushed > self.state.flushed:
                raise PromotionRefusedError(
                    f"peer {peer} has flushed {flushed} > local {self.state.flushed}"
                )
        self.role = ROLE_LEADER
        self.epoch += 1
        self.next_lsn = self.state.flushed + 1
        self.partition.next_lsn = self.next_lsn
        # keep cursors for every known peer; an unreachable one counts as caught
        # up until its first nack rewinds the cursor to its real frontier
        peers = set(self.sent_to) | set(peer_flushed)
        self.sent_to = {pid: min(peer_flushed.get(pid, self.state.flushed),
                                 self.state.flushed) for pid in peers}
        self.hwm = {pid: peer_flushed.get(pid, 0) for pid in peers}
        self.last_sent_commit = {pid: 0 for pid in peers}
        self.pending_exec.clear()
        self.records.clear()
        self.waiting_reply.clear()
        self._advance_commit()


class ReplicationCore:
    """Every replication step of one node, for all of its partitions, no IO.

    The core owns the node's `PartitionReplica`s and talks to the world only
    through the two hooks its owner passes in: `send(peer, frame)` puts an
    encoded frame on the link to `peer`, and `deliver(partition, reply)`
    hands a committed write's `ReplyObject` to whoever waits on its token.
    Its owners (`server.ServerNode`, `simnet.SimNode`) keep IO and time, and
    make at most one call per partition at a time.
    """

    def __init__(self, store: Store, node_id: int, peer_ids: Iterable[int], role: str,
                 max_batch: int, send: Callable[[int, bytes], None],
                 deliver: Callable[[int, ReplyObject], None]):
        self.send = send
        self.deliver = deliver
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
        self._deliver_ready(pid)

    def _deliver_ready(self, pid: int) -> None:
        for reply in self.replicas[pid].ready_replies():
            self.deliver(pid, reply)

    def append(self, msg: wire.AppendEntries) -> bytes:
        """Follower: apply an AppendEntries; returns the ack or nack frame."""
        replica = self.replicas[msg.partition]
        status, lsn = replica.handle_append_entries(
            msg.epoch, msg.leader_commit_lsn, msg.records
        )
        return wire.AppendAck(
            msg.partition, replica.epoch, replica.node_id, lsn,
            wire.MSG_APPEND_ACK if status == "ack" else wire.MSG_APPEND_NACK,
        ).encode()

    def handle_ack(self, ack: wire.AppendAck) -> None:
        """Leader: a nack rewinds the peer's cursor, an ack may commit."""
        replica = self.replicas.get(ack.partition)
        if replica is None or replica.role != ROLE_LEADER:
            return
        if ack.msg_type == wire.MSG_APPEND_NACK:
            replica.reset_peer_cursor(ack.node_id, ack.last_flushed_lsn)
        else:
            replica.on_ack(ack.node_id, ack.last_flushed_lsn)
            self._deliver_ready(ack.partition)
        self.ship(ack.partition)

    def ship(self, pid: int, heartbeat: bool = False) -> None:
        """Send stage: push each peer's next unsent batch, pipelined.

        As the heartbeat, also send a commit-only AppendEntries to each peer
        that has nothing unsent but has not yet heard the commit point.
        """
        replica = self.replicas[pid]
        if replica.role != ROLE_LEADER:
            return
        commit = replica.state.potential_commit
        for peer in replica.sent_to:
            records = replica.take_unsent(peer)
            if records is None:
                if not heartbeat or replica.last_sent_commit[peer] >= commit:
                    continue
                records = []
            replica.last_sent_commit[peer] = commit
            self.send(peer, wire.AppendEntries(pid, replica.epoch, commit, records).encode())

    def beat_owed(self, pid: int) -> bool:
        """Whether a heartbeat now would carry news to some peer."""
        replica = self.replicas[pid]
        commit = replica.state.potential_commit
        return replica.role == ROLE_LEADER and any(
            sent < commit for sent in replica.last_sent_commit.values()
        )

    def rewind(self, pid: int, peer: int) -> None:
        """The link to `peer` dropped: resend everything it has not acked.

        The peer may come back as a restarted process that has not heard the
        commit point, so the next heartbeat carries it again.
        """
        replica = self.replicas[pid]
        if replica.role == ROLE_LEADER:
            replica.reset_peer_cursor(peer, replica.hwm.get(peer, 0) + 1)
            replica.last_sent_commit[peer] = 0

    def read(self, pid: int, key: bytes, view_lsn: int) -> Any:
        """Gated read: the value, or GATE_BLOCK / GATE_REJECT in its place.

        A leader, or a read without a view LSN, is served at once.
        """
        replica = self.replicas[pid]
        if view_lsn and replica.role != ROLE_LEADER:
            action = replica.read_gate(view_lsn)
            if action != GATE_SERVE:
                return action
        return replica.partition.get(key)

    def take_over(self, pid: int, peer_flushed: dict[int, int]) -> None:
        """Promote this node's replica of `pid` to leader and ship."""
        self.replicas[pid].promote(peer_flushed)
        self.ship(pid)
