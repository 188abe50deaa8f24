"""Deterministic cluster simulation: pipelining, faults, fail-over."""

import pytest

from logstore.errors import ReadRejectedError
from logstore.simnet import ExecModel, LinkConfig, SimCluster
from logstore.wal import KIND_PUT


@pytest.fixture
def cluster(tmp_path):
    c = SimCluster(tmp_path, nodes=3, partitions=1, seed=11,
                   link=LinkConfig(delay=0.001))
    yield c
    c.close()


class TestBasicReplication:
    def test_writes_commit_and_replicate_everywhere(self, cluster):
        tickets = [cluster.put(b"k%03d" % i, b"v%d" % i) for i in range(100)]
        cluster.run_idle()
        assert all(t.done for t in tickets)
        assert [t.lsn for t in tickets] == list(range(1, 101))
        for nid in range(3):
            assert cluster.nodes[nid].store.get(b"k042") == b"v42"

    def test_determinism_across_runs(self, tmp_path):
        def run(sub):
            c = SimCluster(tmp_path / sub, nodes=3, partitions=1, seed=5,
                           link=LinkConfig(delay=0.002, jitter=0.001, drop_prob=0.02))
            for i in range(150):
                c.put(b"k%d" % i, b"v")
            c.run_idle()
            trace = (c.transport.now,
                     [c.nodes[n].replicas[0].state.flushed for n in range(3)])
            c.close()
            return trace
        assert run("a") == run("b")

    def test_reply_waits_for_quorum_not_all(self, tmp_path):
        c = SimCluster(tmp_path, nodes=3, partitions=1, seed=1,
                       link=LinkConfig(delay=0.001))
        c.crash(2)  # one follower down: quorum of 2 still reachable
        t = c.put(b"k", b"v")
        c.run_idle()
        assert t.done
        c.close()

    def test_no_commit_without_quorum(self, tmp_path):
        c = SimCluster(tmp_path, nodes=3, partitions=1, seed=1,
                       link=LinkConfig(delay=0.001))
        c.crash(1)
        c.crash(2)
        t = c.put(b"k", b"v")
        c.run_idle()
        assert not t.done
        assert c.nodes[0].replicas[0].state.potential_commit == 0
        c.close()


class TestPipelining:
    def test_multiple_batches_in_flight(self, tmp_path):
        c = SimCluster(tmp_path, nodes=3, partitions=1, seed=2,
                       link=LinkConfig(delay=0.010), max_batch=8,
                       exec_model=ExecModel(per_record=0.0001))
        for i in range(200):
            c.put(b"k%03d" % i, b"v")
        c.run_idle()
        # with a 10ms link, the send stage must not wait for acks
        assert max(c.max_in_flight[(0, 1)], c.max_in_flight[(0, 2)]) >= 2
        c.close()

    def test_two_partitions_overlap_execution(self, tmp_path):
        def sim_time(partitions):
            c = SimCluster(tmp_path / str(partitions), nodes=3,
                           partitions=partitions, seed=4,
                           link=LinkConfig(delay=0.0005),
                           exec_model=ExecModel(per_record=0.0002,
                                                batch_overhead=0.0002))
            for i in range(600):
                c.put(b"key%05d" % i, b"v" * 32)
            c.run_idle()
            elapsed = c.transport.now
            c.close()
            return elapsed
        assert sim_time(1) / sim_time(2) >= 1.5

    def test_dropped_frames_recovered_by_resend(self, tmp_path):
        c = SimCluster(tmp_path, nodes=3, partitions=1, seed=9,
                       link=LinkConfig(delay=0.001, drop_prob=0.10, jitter=0.0005))
        tickets = [c.put(b"k%03d" % i, b"v%d" % i) for i in range(300)]
        c.run_idle()
        assert all(t.done for t in tickets)
        for nid in range(3):
            assert c.nodes[nid].replicas[0].state.flushed == 300
        c.close()

    def test_lost_frame_drops_the_link_and_the_resend_catches_up(self, tmp_path):
        # losing a frame drops the connection, so even the last frame of a
        # burst is resent once the link is back
        behind = []
        for seed in range(50):
            c = SimCluster(tmp_path / str(seed), nodes=3, partitions=1, seed=seed,
                           link=LinkConfig(delay=0.001, drop_prob=0.3))
            tickets = [c.put(b"k%d" % i, b"v%d" % i) for i in range(5)]
            c.run_idle()
            flushed = [c.nodes[n].replicas[0].state.flushed for n in range(3)]
            if not all(t.done for t in tickets) or flushed != [5, 5, 5]:
                behind.append((seed, flushed))
            c.close()
        assert behind == []

    def test_duplicated_frames_are_idempotent(self, tmp_path):
        c = SimCluster(tmp_path, nodes=3, partitions=1, seed=10,
                       link=LinkConfig(delay=0.001, dup_prob=0.15))
        tickets = [c.put(b"k%03d" % i, b"v%d" % i) for i in range(300)]
        c.run_idle()
        assert all(t.done for t in tickets)
        logs = [c.nodes[n].store.partitions[0].store.segment_path(0).read_bytes()
                for n in range(3)]
        assert logs[0] == logs[1] == logs[2]
        c.close()


class TestLeaderMemory:
    def test_dead_follower_pins_no_write_in_memory(self, tmp_path):
        c = SimCluster(tmp_path, nodes=3, partitions=1, seed=3,
                       link=LinkConfig(delay=0.001))
        c.crash(2)
        leader = c.nodes[0].replicas[0]
        tickets = []
        for start in range(0, 20_000, 64):
            tickets += [c.put(b"k%05d" % i, b"v") for i in range(start, min(start + 64, 20_000))]
            c.run(until=c.transport.now + 0.002)
            acked = sum(t.done for t in tickets)
            assert len(leader.records) == len(tickets) - acked, (start, acked)
        c.run_idle()
        assert all(t.done for t in tickets)
        assert len(leader.records) == 0
        c.close()

    def test_returning_follower_catches_up_from_a_multi_segment_log(self, tmp_path):
        c = SimCluster(tmp_path, nodes=3, partitions=1, seed=6,
                       link=LinkConfig(delay=0.001), segment_bytes=16 * 1024)
        leader = c.nodes[0]
        leader.core.link_down(2)
        tickets = [c.put(b"k%05d" % i, b"v%d" % i) for i in range(5000)]
        c.run_idle()
        assert all(t.done for t in tickets) and not leader.replicas[0].records
        assert len(leader.store.partitions[0].store.unsorted_ids()) >= 3
        assert c.nodes[2].replicas[0].state.flushed == 0
        leader.core.link_up(2)
        c.run_idle()
        assert c.nodes[2].replicas[0].state.flushed == 5000
        follower = c.nodes[2].store
        assert all(follower.get(b"k%05d" % i) == b"v%d" % i for i in range(5000))
        c.close()


class TestFollowerReads:
    def test_read_blocks_until_commit_reaches_view(self, cluster):
        cluster.put(b"k", b"v1")
        # advance only until the follower has flushed the record but has not
        # yet learnt it is committed: the gate must block, then serve
        replica = cluster.nodes[1].replicas[0]
        while replica.state.flushed < 1:
            cluster.step()
        assert replica.state.potential_commit < 1
        assert cluster.read_follower(1, b"k", read_view_lsn=1) == b"v1"
        assert replica.state.potential_commit >= 1

    def test_follower_hears_one_writes_commit_point_within_a_few_link_delays(self, tmp_path):
        c = SimCluster(tmp_path, nodes=3, partitions=1, seed=12,
                       link=LinkConfig(delay=0.002))
        c.put(b"k", b"v")
        state = c.nodes[1].replicas[0].state
        while state.potential_commit < 1 and c.transport.pending():
            c.step()
        # records out, ack back, commit point out: three link delays and
        # executor time, with no timer to wait for
        assert state.potential_commit == 1
        assert c.transport.now <= 0.010
        c.close()

    def test_read_beyond_log_rejected(self, cluster):
        cluster.put(b"k", b"v")
        cluster.run_idle()
        with pytest.raises(ReadRejectedError):
            cluster.read_follower(1, b"k", read_view_lsn=999)

    def test_freshness_converges_to_one(self, cluster):
        for i in range(500):
            cluster.put(b"k%d" % i, b"v")
        cluster.run_idle()
        assert cluster.freshness(0, 1) == 1.0
        assert cluster.freshness(0, 2) == 1.0


class TestFailover:
    def test_acked_writes_survive_leader_crash(self, tmp_path):
        c = SimCluster(tmp_path, nodes=3, partitions=1, seed=6,
                       link=LinkConfig(delay=0.001))
        tickets = [c.put(b"k%03d" % i, b"v%d" % i) for i in range(250)]
        c.run_idle()
        acked = [i for i, t in enumerate(tickets) if t.done]
        assert len(acked) == 250
        c.crash(0)
        c.promote(1, 0)
        c.run_idle()
        for i in acked:
            assert c.nodes[1].store.get(b"k%03d" % i) == b"v%d" % i
        t = c.nodes[1].submit(KIND_PUT, b"after", b"crash")
        c.run_idle()
        assert t.done   # new leader + remaining follower form a quorum
        assert c.nodes[2].store.get(b"after") == b"crash"
        c.close()

    def test_promoting_the_leader_keeps_its_unanswered_writes(self, tmp_path):
        c = SimCluster(tmp_path, nodes=3, seed=1, link=LinkConfig(delay=0.002))
        tickets = [c.put(b"k%d" % i, b"v") for i in range(20)]
        c.run(until=c.transport.now + 0.001)  # shipped, none acked yet
        c.promote(0, 0)
        c.run_idle()
        assert all(t.done for t in tickets)
        assert c.nodes[0].replicas[0].epoch == 1
        c.close()

    def test_promotion_of_lagging_node_refused(self, tmp_path):
        from logstore.errors import PromotionRefusedError
        c = SimCluster(tmp_path, nodes=3, partitions=1, seed=8,
                       link=LinkConfig(delay=0.001))
        for i in range(50):
            c.put(b"k%d" % i, b"v")
        c.run_idle()
        # hold node 2 back: kill it, write more, revive, then try to promote it
        c.crash(2)
        for i in range(50, 80):
            c.put(b"k%d" % i, b"v")
        c.run_idle()
        c.nodes[2].dead = False
        with pytest.raises(PromotionRefusedError):
            c.promote(2, 0)
        c.close()
