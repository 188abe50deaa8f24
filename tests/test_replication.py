"""Quorum replication: dispatch, acks, commit advance, read gate, promotion."""

import ast
from pathlib import Path

import pytest

import logstore
from logstore import wire
from logstore.engine import Partition, Store
from logstore.errors import LogStoreError, NotLeaderError, PromotionRefusedError
from logstore.recovery import recover_store
from logstore.replication import (
    GATE_BLOCK,
    GATE_REJECT,
    GATE_SERVE,
    ROLE_FOLLOWER,
    ROLE_LEADER,
    LsnState,
    PartitionReplica,
    ReplicationCore,
    freshness_score,
)
from logstore.wal import KIND_DELETE, KIND_PUT, LogRecord


def leader(tmp_path, cluster=3, peers=(1, 2), **kw):
    p = Partition(0, tmp_path / "leader")
    return PartitionReplica(p, 0, cluster, role=ROLE_LEADER, peer_ids=peers, **kw)


def follower(tmp_path, node_id=1, cluster=3):
    p = Partition(0, tmp_path / f"f{node_id}")
    return PartitionReplica(p, node_id, cluster, role=ROLE_FOLLOWER)


class TestDispatchExec:
    def test_dispatch_assigns_contiguous_lsns(self, tmp_path):
        r = leader(tmp_path)
        lsns = [r.dispatch(KIND_PUT, b"k%d" % i, b"v") for i in range(10)]
        assert lsns == list(range(1, 11))

    def test_follower_rejects_dispatch(self, tmp_path):
        r = follower(tmp_path)
        with pytest.raises(NotLeaderError):
            r.dispatch(KIND_PUT, b"k", b"v")

    def test_exec_batch_applies_and_flushes_once(self, tmp_path):
        r = leader(tmp_path)
        for i in range(10):
            r.dispatch(KIND_PUT, b"k%d" % i, b"v%d" % i)
        before = r.partition.counters.group_flushes
        replies = r.exec_batch()
        assert len(replies) == 10
        assert r.partition.counters.group_flushes == before + 1
        assert r.state.flushed == 10
        assert r.partition.get(b"k3") == b"v3"

    def test_exec_batch_respects_max_batch(self, tmp_path):
        r = leader(tmp_path, max_batch=4)
        for i in range(10):
            r.dispatch(KIND_PUT, b"k%d" % i, b"v")
        assert len(r.exec_batch()) == 4
        assert len(r.exec_batch()) == 4
        assert len(r.exec_batch()) == 2

    def test_replies_wait_for_quorum(self, tmp_path):
        r = leader(tmp_path)  # 3 nodes: quorum 2 = leader + 1 follower
        r.dispatch(KIND_PUT, b"k", b"v", token="t1")
        r.exec_batch()
        assert r.ready_replies() == []          # local flush alone is not quorum
        r.on_ack(1, 1)
        ready = r.ready_replies()
        assert [obj.token for obj in ready] == ["t1"]
        assert r.state.potential_commit == 1

    def test_single_node_commits_immediately(self, tmp_path):
        r = leader(tmp_path, cluster=1, peers=())
        r.dispatch(KIND_PUT, b"k", b"v", token="t")
        r.exec_batch()
        assert r.state.potential_commit == 1
        assert [o.token for o in r.ready_replies()] == ["t"]


class TestQuorumMath:
    def test_commit_is_quorum_th_highest_mark(self, tmp_path):
        r = leader(tmp_path, cluster=5, peers=(1, 2, 3, 4))
        for i in range(10):
            r.dispatch(KIND_PUT, b"k%d" % i, b"v")
        r.exec_batch()                 # local flushed = 10
        r.on_ack(1, 4)
        r.on_ack(2, 7)
        # marks sorted desc: [10, 7, 4, 0, 0]; quorum=3 -> 3rd highest = 4
        assert r.state.potential_commit == 4
        r.on_ack(3, 9)
        # [10, 9, 7, 4, 0] -> 7
        assert r.state.potential_commit == 7

    def test_acks_are_cumulative_high_water_marks(self, tmp_path):
        r = leader(tmp_path)
        for i in range(5):
            r.dispatch(KIND_PUT, b"k%d" % i, b"v")
        r.exec_batch()
        r.on_ack(1, 5)
        r.on_ack(1, 3)  # stale, reordered ack: must not move anything back
        assert r.hwm[1] == 5
        assert r.state.potential_commit == 5

    def test_commit_clamped_to_local_flush(self, tmp_path):
        r = leader(tmp_path)
        r.dispatch(KIND_PUT, b"k", b"v")
        r.exec_batch()
        r.on_ack(1, 99)  # follower claims more than the leader flushed
        assert r.state.potential_commit == 1

    def test_commit_monotone(self, tmp_path):
        r = leader(tmp_path)
        seen = []
        for i in range(20):
            r.dispatch(KIND_PUT, b"k%d" % i, b"v")
            r.exec_batch()
            r.on_ack(1 + i % 2, i + 1)
            seen.append(r.state.potential_commit)
        assert seen == sorted(seen)


class TestSendStage:
    def test_take_unsent_is_pipelined_per_peer(self, tmp_path):
        r = leader(tmp_path)
        for i in range(6):
            r.dispatch(KIND_PUT, b"k%d" % i, b"v")
        first = r.take_unsent(1, max_records=4)
        second = r.take_unsent(1, max_records=4)   # next batch before any ack
        assert [rec.lsn for rec in first] == [1, 2, 3, 4]
        assert [rec.lsn for rec in second] == [5, 6]
        assert r.take_unsent(1) is None            # caught up
        assert [rec.lsn for rec in r.take_unsent(2)] == [1, 2, 3, 4, 5, 6]

    def test_nack_rewinds_cursor(self, tmp_path):
        r = leader(tmp_path)
        for i in range(5):
            r.dispatch(KIND_PUT, b"k%d" % i, b"v")
        r.take_unsent(1)
        r.reset_peer_cursor(1, 3)                 # follower says: expected 3
        assert [rec.lsn for rec in r.take_unsent(1)] == [3, 4, 5]

    def test_backfill_rereads_from_log_after_prune(self, tmp_path):
        r = leader(tmp_path)
        for i in range(5):
            r.dispatch(KIND_PUT, b"k%d" % i, b"v%d" % i)
        r.exec_batch()
        r.take_unsent(1)
        r.on_ack(1, 5)          # quorum met
        r.on_ack(2, 5)
        r.ready_replies()       # each op leaves memory with its reply
        assert not r.records
        r.reset_peer_cursor(2, 1)  # peer 2 actually lost everything
        records = r.take_unsent(2)
        assert [rec.lsn for rec in records] == [1, 2, 3, 4, 5]
        assert records[2].value == b"v2"


class TestBackfillFromLog:
    """Records whose replies are out are read back from the log by LSN."""

    def replied(self, tmp_path, n, segment_bytes=2048):
        p = Partition(0, tmp_path / "leader", segment_bytes=segment_bytes)
        r = PartitionReplica(p, 0, 3, role=ROLE_LEADER, peer_ids=(1, 2))
        for i in range(n):
            r.dispatch(KIND_PUT, b"k%04d" % i, b"v%d" % i)
        r.exec_batch(max_batch=n)
        r.on_ack(1, n)
        assert len(r.ready_replies()) == n and not r.records
        return r

    def test_backfill_scans_only_the_segments_that_reach_its_start(self, tmp_path):
        r = self.replied(tmp_path, 300)
        store = r.partition.store
        reaching = [sid for sid in store.unsorted_ids()
                    if store.segments[sid].max_lsn >= 250]
        assert len(store.unsorted_ids()) >= 5 and len(reaching) < len(store.unsorted_ids())
        r.reset_peer_cursor(2, 250)
        before = r.partition.counters.seq_scans
        records = r.take_unsent(2)
        assert [rec.lsn for rec in records] == list(range(250, 301))
        assert r.partition.counters.seq_scans - before == len(reaching)

    def test_backfill_stops_past_its_end(self, tmp_path):
        r = self.replied(tmp_path, 300)
        r.reset_peer_cursor(2, 1)
        before = r.partition.counters.seq_scans
        records = r.take_unsent(2, max_records=10)
        assert [rec.lsn for rec in records] == list(range(1, 11))
        assert records[4].value == b"v4"
        assert r.partition.counters.seq_scans - before == 1

    def test_reopened_leader_backfills_from_its_log(self, tmp_path):
        r = self.replied(tmp_path, 300)
        r.partition.checkpoint()
        r.partition.close()
        p = Partition(0, tmp_path / "leader", segment_bytes=2048)
        r = PartitionReplica(p, 0, 3, role=ROLE_LEADER, peer_ids=(1, 2))
        r.reset_peer_cursor(2, 1)
        records = r.take_unsent(2)
        assert [rec.lsn for rec in records] == list(range(1, 301))
        assert records[299].value == b"v299"

    def test_backfill_of_a_compacted_start_raises(self, tmp_path):
        r = self.replied(tmp_path, 5)
        r.partition.compact()
        for i in range(5, 10):
            r.dispatch(KIND_PUT, b"k%04d" % i, b"v%d" % i)
        r.exec_batch()
        r.on_ack(1, 10)
        r.ready_replies()
        r.reset_peer_cursor(2, 3)   # lsn 3 lives only in the sorted segment
        with pytest.raises(LogStoreError, match="compacted away"):
            r.take_unsent(2, max_records=6)
        r.reset_peer_cursor(2, 1)   # stops before the first record it finds
        with pytest.raises(LogStoreError, match="compacted away"):
            r.take_unsent(2, max_records=3)


class TestFollowerAppend:
    def records(self, lsns):
        return [LogRecord(lsn, KIND_PUT, b"k%d" % lsn, b"v%d" % lsn) for lsn in lsns]

    def test_append_applies_immediately(self, tmp_path):
        f = follower(tmp_path)
        status, flushed = f.handle_append_entries(1, 0, self.records([1, 2, 3]))
        assert (status, flushed) == ("ack", 3)
        assert f.partition.get(b"k2") == b"v2"    # index upkeep == replay
        assert f.state == LsnState(flushed=3, potential_commit=0)

    def test_commit_piggyback_advances_replayed_for_free(self, tmp_path):
        f = follower(tmp_path)
        f.handle_append_entries(1, 0, self.records([1, 2, 3, 4, 5]))
        assert f.state.potential_commit == 0
        f.handle_append_entries(1, 5, self.records([6]))
        assert f.state.potential_commit == 5
        assert f.read_gate(5) == GATE_SERVE       # no replay work needed

    def test_commit_clamped_to_flushed(self, tmp_path):
        f = follower(tmp_path)
        f.handle_append_entries(1, 10, self.records([1, 2]))
        assert f.state.flushed == 2
        assert f.state.potential_commit == 2

    def test_gap_nacked_with_expected_lsn(self, tmp_path):
        f = follower(tmp_path)
        f.handle_append_entries(1, 0, self.records([1, 2]))
        status, expected = f.handle_append_entries(1, 0, self.records([5, 6]))
        assert (status, expected) == ("nack", 3)
        assert f.state.flushed == 2

    def test_duplicate_batch_is_idempotent(self, tmp_path):
        f = follower(tmp_path)
        f.handle_append_entries(1, 0, self.records([1, 2, 3]))
        size = f.partition.store.active_meta.data_size
        status, flushed = f.handle_append_entries(1, 0, self.records([1, 2, 3]))
        assert (status, flushed) == ("ack", 3)
        assert f.partition.store.active_meta.data_size == size  # nothing re-appended
        status, flushed = f.handle_append_entries(1, 0, self.records([2, 3, 4]))
        assert (status, flushed) == ("ack", 4)    # overlap applied once

    def test_stale_epoch_rejected(self, tmp_path):
        f = follower(tmp_path)
        f.handle_append_entries(5, 0, self.records([1]))
        status, _ = f.handle_append_entries(4, 0, self.records([2]))
        assert status == "nack"
        assert f.state.flushed == 1

    def test_heartbeat_without_records_moves_commit(self, tmp_path):
        f = follower(tmp_path)
        f.handle_append_entries(1, 0, self.records([1, 2, 3]))
        status, flushed = f.handle_append_entries(1, 3, [])
        assert (status, flushed) == ("ack", 3)
        assert f.state.potential_commit == 3

    def test_tombstones_replicate(self, tmp_path):
        f = follower(tmp_path)
        f.handle_append_entries(1, 0, self.records([1]))
        f.handle_append_entries(1, 0, [LogRecord(2, KIND_DELETE, b"k1", b"")])
        assert f.partition.get(b"k1") is None


class TestLogIdentity:
    def test_leader_and_follower_logs_are_byte_identical(self, tmp_path):
        r = leader(tmp_path)
        f = follower(tmp_path)
        payload = [(b"alpha", b"1"), (b"beta", b"2"), (b"alpha", b"3")]
        for key, value in payload:
            r.dispatch(KIND_PUT, key, value)
        r.dispatch(KIND_DELETE, b"beta", b"")
        r.exec_batch()
        f.handle_append_entries(1, 0, r.take_unsent(1))
        leader_log = r.partition.store.segment_path(0).read_bytes()
        follower_log = f.partition.store.segment_path(0).read_bytes()
        assert leader_log == follower_log


class TestReadGate:
    def make(self, tmp_path, flushed, pc):
        f = follower(tmp_path)
        f.state.flushed = flushed
        f.state.potential_commit = pc
        f.state.check()
        return f

    def test_older_than_replayed_serves(self, tmp_path):
        f = self.make(tmp_path, flushed=12, pc=10)
        assert f.read_gate(5) == GATE_SERVE

    def test_beyond_commit_blocks(self, tmp_path):
        f = self.make(tmp_path, flushed=12, pc=10)
        assert f.read_gate(11) == GATE_BLOCK
        # once the commit point catches up the same view is servable
        f.state.potential_commit = 11
        assert f.read_gate(11) == GATE_SERVE

    def test_beyond_flushed_rejects(self, tmp_path):
        f = self.make(tmp_path, flushed=12, pc=10)
        assert f.read_gate(13) == GATE_REJECT

    def test_state_ordering_invariant(self, tmp_path):
        with pytest.raises(Exception):
            self.make(tmp_path, flushed=5, pc=8)


class TestFreshness:
    def test_score_is_lsn_ratio(self):
        assert freshness_score(8, 10) == pytest.approx(0.8)
        assert freshness_score(10, 10) == 1.0

    def test_score_clamped_and_defined_at_zero(self):
        assert freshness_score(12, 10) == 1.0   # never above 1
        assert freshness_score(0, 0) == 1.0     # empty log: trivially fresh
        assert freshness_score(5, 0) == 1.0


class TestPromotion:
    def test_promotion_succeeds_when_freshest(self, tmp_path):
        f = follower(tmp_path)
        f.handle_append_entries(1, 3, [
            LogRecord(i, KIND_PUT, b"k%d" % i, b"v") for i in (1, 2, 3)])
        f.promote({2: 2})
        assert f.role == ROLE_LEADER
        assert f.epoch == 2
        assert f.state.flushed == 3               # full log kept
        lsn = f.dispatch(KIND_PUT, b"post", b"v")
        assert lsn == 4                           # continues after old frontier

    def test_promotion_refused_when_peer_is_fresher(self, tmp_path):
        f = follower(tmp_path)
        f.handle_append_entries(1, 0, [LogRecord(1, KIND_PUT, b"k", b"v")])
        with pytest.raises(PromotionRefusedError):
            f.promote({2: 5})
        assert f.role == ROLE_FOLLOWER

    def test_new_leader_resends_to_laggards(self, tmp_path):
        f = follower(tmp_path)
        records = [LogRecord(i, KIND_PUT, b"k%d" % i, b"v%d" % i) for i in (1, 2, 3)]
        f.handle_append_entries(1, 3, records)
        f.promote({2: 1})
        resend = f.take_unsent(2)
        assert [rec.lsn for rec in resend] == [2, 3]
        assert resend[0].value == b"v2"           # backfilled from its own log


class TestSingleNodePrune:
    def test_single_node_leader_frees_every_executed_op(self, tmp_path):
        r = leader(tmp_path, cluster=1, peers=())
        for i in range(1000):
            r.dispatch(KIND_PUT, b"k%d" % i, b"v%d" % i)
            if i % 10 == 9:
                r.exec_batch()
        r.exec_batch()
        assert r.state.potential_commit == 1000
        assert len(r.ready_replies()) == 1000
        assert len(r.records) == 0


class TestCoreWithoutTransport:
    """Three cores wired by hand: every frame is passed on explicitly."""

    def make(self, tmp_path):
        self.wire = []       # (src, dst, frame) in send order
        self.replies = []    # tokens of delivered replies
        self.cores = {}
        for nid in range(3):
            role = ROLE_LEADER if nid == 0 else ROLE_FOLLOWER
            self.cores[nid] = ReplicationCore(
                Store(tmp_path / f"n{nid}"), nid, [p for p in range(3) if p != nid],
                role, 64,
                send=lambda peer, frame, nid=nid: self.wire.append((nid, peer, frame)),
                deliver=lambda pid, reply: self.replies.append(reply.token),
            )
        return self.cores

    def take(self, src, dst):
        """Remove and return the oldest frame queued from src to dst."""
        for i, (s, d, frame) in enumerate(self.wire):
            if (s, d) == (src, dst):
                del self.wire[i]
                return frame
        raise AssertionError(f"no frame from {src} to {dst}")

    def pass_on(self, src, dst):
        """Deliver the oldest frame from src to dst; a follower's answer, if
        any, is queued."""
        msg_type, payload, _ = wire.decode_frame(self.take(src, dst))
        if msg_type == wire.MSG_APPEND_ENTRIES:
            answer = self.cores[dst].append(wire.AppendEntries.decode(payload))
            if answer is not None:
                self.wire.append((dst, src, answer))
        else:
            self.cores[dst].handle_ack(wire.AppendAck.decode(payload, msg_type))
        return msg_type

    def test_reply_only_after_one_follower_ack(self, tmp_path):
        cores = self.make(tmp_path)
        lsn = cores[0].write(0, KIND_PUT, b"k", b"v", "t1")
        assert lsn == 1
        assert [(s, d) for s, d, _ in self.wire] == [(0, 1), (0, 2)]  # shipped at once
        cores[0].execute(0)
        assert self.replies == []            # durable on the leader alone
        self.pass_on(0, 1)
        assert cores[1].replicas[0].state.flushed == 1
        assert self.replies == []            # the ack is still on the wire
        assert self.pass_on(1, 0) == wire.MSG_APPEND_ACK
        assert self.replies == ["t1"]
        assert cores[0].replicas[0].state.potential_commit == 1

    def test_answers_from_a_node_outside_the_cluster_are_ignored(self, tmp_path):
        cores = self.make(tmp_path)
        links = {1: [], 2: []}  # like the server's: one link per configured peer
        cores[0].send = lambda peer, frame: links[peer].append(frame)
        cores[0].handle_ack(wire.AppendAck(0, 1, 9, 1, wire.MSG_APPEND_NACK))
        cores[0].handle_ack(wire.AppendAck(0, 1, 9, 5, wire.MSG_APPEND_ACK))
        cores[0].write(0, KIND_PUT, b"k", b"v", "t1")
        cores[0].execute(0)
        assert [len(frames) for frames in links.values()] == [1, 1]
        assert self.replies == []  # node 9's ack commits nothing

    def test_gap_is_nacked_and_the_resend_fills_it(self, tmp_path):
        cores = self.make(tmp_path)
        for i in range(3):
            cores[0].write(0, KIND_PUT, b"k%d" % i, b"v%d" % i, i)
        cores[0].execute(0)
        self.take(0, 1)                                  # lsn 1 is lost
        self.pass_on(0, 1)                               # lsn 2: a gap
        assert self.pass_on(1, 0) == wire.MSG_APPEND_NACK
        # the nack rewound the cursor and shipped lsn 1..3 again, behind lsn 3
        self.pass_on(0, 1)
        assert self.pass_on(1, 0) == wire.MSG_APPEND_NACK  # lsn 3: still a gap
        self.pass_on(0, 1)
        assert self.pass_on(1, 0) == wire.MSG_APPEND_ACK
        follower = cores[1].replicas[0]
        assert follower.state.flushed == 3
        assert follower.partition.get(b"k0") == b"v0"
        assert sorted(self.replies) == [0, 1, 2]

    def links(self):
        return [(s, d) for s, d, _ in self.wire]

    def peek(self, src, dst):
        """(commit point, record LSNs) of the oldest frame from src to dst."""
        frame = next(f for s, d, f in self.wire if (s, d) == (src, dst))
        msg_type, payload, _ = wire.decode_frame(frame)
        assert msg_type == wire.MSG_APPEND_ENTRIES
        msg = wire.AppendEntries.decode(payload)
        return msg.leader_commit_lsn, [record.lsn for record in msg.records]

    def test_the_ack_that_commits_pushes_the_commit_point(self, tmp_path):
        cores = self.make(tmp_path)
        cores[0].write(0, KIND_PUT, b"k1", b"v1", 1)   # one frame per write
        cores[0].write(0, KIND_PUT, b"k2", b"v2", 2)
        cores[0].execute(0)
        self.pass_on(0, 1)
        self.pass_on(1, 0)                   # quorum for lsn 1
        assert self.replies == [1]
        # lsn 2 is in flight to both followers: the commit point waits for it
        assert self.links() == [(0, 2), (0, 1), (0, 2)]
        self.pass_on(0, 1)
        self.pass_on(1, 0)                   # quorum for lsn 2
        assert self.replies == [1, 2]
        # with no further call, each follower whose records are all acked or
        # committed is sent the commit point: node 2 gets it behind its records
        assert self.links() == [(0, 2), (0, 2), (0, 1), (0, 2)]
        assert self.peek(0, 1) == (2, [])
        self.pass_on(0, 1)
        assert (0, 1) not in self.links() and (1, 0) not in self.links()  # no ack
        for _ in range(3):
            self.pass_on(0, 2)               # lsn 1, lsn 2, then the commit point
        self.pass_on(2, 0)
        self.pass_on(2, 0)
        assert self.wire == []               # its acks draw nothing more
        for nid in (1, 2):
            assert cores[nid].replicas[0].state.potential_commit == 2
            assert cores[nid].read(0, b"k2", 2) == b"v2"
        cores[0].ship(0)                     # nothing new: no frame
        assert self.wire == []

    def test_a_peer_whose_link_is_down_is_shipped_nothing(self, tmp_path):
        cores = self.make(tmp_path)
        cores[0].link_down(1)
        for i in range(3):
            cores[0].write(0, KIND_PUT, b"k%d" % i, b"v", i)
        cores[0].execute(0)
        for _ in range(3):
            self.pass_on(0, 2)
            self.pass_on(2, 0)
        assert sorted(self.replies) == [0, 1, 2]  # node 2 makes the quorum
        assert self.links() == [(0, 2)]           # its commit point, and nothing for node 1
        assert cores[1].replicas[0].state.flushed == 0

    def test_restarted_follower_hears_the_commit_point(self, tmp_path):
        cores = self.make(tmp_path)
        cores[0].write(0, KIND_PUT, b"k", b"v", "t")
        cores[0].execute(0)
        for nid in (1, 2):
            self.pass_on(0, nid)
            self.pass_on(nid, 0)
            self.pass_on(0, nid)             # the commit point
        assert cores[1].replicas[0].state.potential_commit == 1
        cores[0].link_down(1)                # the leader's link to node 1 dropped
        for i in (2, 3):
            cores[0].write(0, KIND_PUT, b"k%d" % i, b"v%d" % i, i)
        cores[0].execute(0)
        for _ in range(2):
            self.pass_on(0, 2)
            self.pass_on(2, 0)
        self.pass_on(0, 2)                   # commit point 3
        assert self.wire == []
        # follower 1 restarts from its directory and has lost the commit point
        cores[1].replicas[0].partition.close()
        cores[1] = ReplicationCore(
            recover_store(tmp_path / "n1", 1), 1, [0, 2], ROLE_FOLLOWER, 64,
            send=lambda peer, frame: self.wire.append((1, peer, frame)),
            deliver=lambda pid, reply: self.replies.append(reply.token),
        )
        assert cores[1].read(0, b"k", 1) == GATE_BLOCK
        cores[0].link_up(1)                  # resend from its last ack, with the commit point
        assert self.links() == [(0, 1)] and self.peek(0, 1) == (3, [2, 3])
        self.pass_on(0, 1)
        assert cores[1].read(0, b"k", 1) == b"v"
        assert cores[1].read(0, b"k3", 3) == b"v3"
        self.pass_on(1, 0)
        cores[0].link_up(2)                  # never down: nothing to resend
        assert self.wire == []


class TestLeaderReopen:
    def test_write_after_reopen_over_trailing_tombstones_reaches_follower(self, tmp_path):
        """A reused LSN would look like a resend to the follower: acked, never stored."""
        r, f = leader(tmp_path, cluster=2, peers=(1,)), follower(tmp_path, cluster=2)
        r.dispatch(KIND_PUT, b"a", b"1")
        r.dispatch(KIND_PUT, b"b", b"2")
        r.dispatch(KIND_DELETE, b"b", b"")
        r.exec_batch()
        assert f.handle_append_entries(r.epoch, 0, r.take_unsent(1)) == ("ack", 3)
        r.partition.checkpoint()
        r.partition.close()
        r = PartitionReplica(Partition(0, tmp_path / "leader"), 0, 2,
                             role=ROLE_LEADER, peer_ids=(1,))
        assert r.dispatch(KIND_PUT, b"c", b"3") == 4
        r.exec_batch()
        assert f.handle_append_entries(r.epoch, 0, r.take_unsent(1)) == ("ack", 4)
        assert f.partition.get(b"c") == b"3"


class TestOneReplicationCore:
    PROTOCOL_STEPS = {
        "ship", "take_unsent", "on_ack", "reset_peer_cursor", "commit_lsn_for_send",
        "needs_commit_heartbeat", "handle_append_entries", "exec_batch",
        "ready_replies", "dispatch", "read_gate", "promote",
    }

    @pytest.mark.parametrize("module", ["server.py", "simnet.py"])
    def test_server_and_simnet_call_no_replica_protocol_step(self, module):
        """server.py and simnet.py reach the protocol only through ReplicationCore."""
        path = Path(logstore.__file__).parent / module
        calls = [
            node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Attribute, ast.Name))
        ]
        assert self.PROTOCOL_STEPS.isdisjoint(calls), sorted(self.PROTOCOL_STEPS & set(calls))
