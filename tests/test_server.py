"""TCP server nodes on localhost: client API, replication, restart."""

import ast
import os
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

import logstore

from logstore.client import Client, ClientError
from logstore.config import NodeConfig
from logstore.engine import route
from logstore.errors import NotLeaderError, ReadRejectedError
from logstore.server import FLUSH_THREAD, LOOP_THREAD, ServerNode
from logstore.wal import KIND_PUT, LogRecord
from logstore import wire


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


@pytest.fixture
def single(tmp_path):
    cfg = NodeConfig(node_id=0, listen="127.0.0.1:0", partitions=2,
                     data_dir=str(tmp_path / "n0"))
    node = ServerNode(cfg)
    node.start()
    client = Client("127.0.0.1", node.port)
    yield node, client
    client.close()
    node.stop()


@pytest.fixture
def trio(tmp_path):
    ports = [free_port() for _ in range(3)]
    nodes = []
    for nid in range(3):
        peers = {i: f"127.0.0.1:{ports[i]}" for i in range(3) if i != nid}
        cfg = NodeConfig(node_id=nid, listen=f"127.0.0.1:{ports[nid]}",
                         peers=peers, partitions=1,
                         data_dir=str(tmp_path / f"n{nid}"), leader_node=0)
        node = ServerNode(cfg)
        node.start()
        nodes.append(node)
    yield nodes, ports
    for node in nodes:
        node.stop()


class TestSingleNode:
    def test_crud_over_the_wire(self, single):
        _, c = single
        assert c.put(b"a", b"1") > 0
        assert c.get(b"a") == b"1"
        assert c.get(b"nope") is None
        c.put(b"b", b"2")
        assert c.delete(b"b") is True
        assert c.delete(b"b") is False
        assert c.range(b"a", b"z") == [(b"a", b"1")]
        values = c.batch_get([b"a", b"b"])
        assert values == [b"1", None]

    def test_stats_exposes_lsn_state(self, single):
        _, c = single
        c.put(b"x", b"y")
        text = c.stats()
        assert "role=leader" in text
        assert "flushed=" in text and "potential_commit=" in text

    def test_empty_value_roundtrip(self, single):
        _, c = single
        c.put(b"empty", b"")
        assert c.get(b"empty") == b""

    def test_large_value_roundtrip(self, single):
        _, c = single
        blob = bytes(range(256)) * 4096  # 1 MiB
        c.put(b"big", blob)
        assert c.get(b"big") == blob

    def test_data_survives_restart(self, tmp_path):
        cfg = NodeConfig(node_id=0, listen="127.0.0.1:0", partitions=2,
                         data_dir=str(tmp_path / "n0"))
        node = ServerNode(cfg)
        node.start()
        with Client("127.0.0.1", node.port) as c:
            for i in range(200):
                c.put(b"k%03d" % i, b"v%d" % i)
        node.stop()
        node2 = ServerNode(cfg)
        node2.start()
        with Client("127.0.0.1", node2.port) as c:
            assert c.get(b"k150") == b"v150"
        node2.stop()

    def test_pipelined_puts_beyond_queue_depth_meet_backpressure_in_order(self, tmp_path):
        cfg = NodeConfig(node_id=0, listen="127.0.0.1:0", partitions=1, queue_depth=4,
                         data_dir=str(tmp_path / "n0"))
        node = ServerNode(cfg)
        node.start()
        keys = [b"k%02d" % i for i in range(32)]
        try:
            # one send, so one turn of the loop reads more PUTs than the queue holds
            with socket.create_connection(("127.0.0.1", node.port), timeout=5.0) as s:
                s.sendall(b"".join(wire.encode_put(k, b"v" + k) for k in keys))
                replies = [wire.read_frame(s) for _ in keys]
            accepted, lsns, refused = [], [], 0
            for key, (msg_type, payload) in zip(keys, replies):
                if msg_type == wire.MSG_OK:
                    accepted.append(key)
                    lsns.append(wire.decode_ok(payload)[1])
                else:
                    assert msg_type == wire.MSG_ERR
                    assert wire.decode_err(payload)[0] == wire.ERR_BACKPRESSURE
                    refused += 1
            # the first PUT always fits, so a refusal ahead of it, or accepted
            # LSNs other than 1, 2, 3, ..., would mean replies out of order
            assert replies[0][0] == wire.MSG_OK
            assert lsns == list(range(1, len(lsns) + 1))
            assert refused > 0
            with Client("127.0.0.1", node.port) as c:
                assert [c.get(k) for k in accepted] == [b"v" + k for k in accepted]
        finally:
            node.stop()

    def test_one_loop_thread_and_no_timer_after_promotion(self, tmp_path):
        cfg = NodeConfig(node_id=0, listen="127.0.0.1:0", partitions=2,
                         data_dir=str(tmp_path / "n0"))
        node = ServerNode(cfg)
        before = set(threading.enumerate())
        node.start()

        def timers():
            # sampled from outside the loop: the most armed at once
            seen = []
            for _ in range(20):
                seen.append(len(node._timers))
                time.sleep(0.005)
            return max(seen)

        def new_threads():
            return sorted(t.name for t in set(threading.enumerate()) - before)

        try:
            # the loop, and the flusher that runs the leader's fsyncs
            assert new_threads() == [FLUSH_THREAD, LOOP_THREAD]
            assert timers() == 0  # an idle single node holds no timer
            with Client("127.0.0.1", node.port) as c:
                for i in range(20):  # writes and their syncs start no thread
                    c.put(b"k%d" % i, b"v")
                c.promote(1)  # the node already leads partition 1
            assert new_threads() == [FLUSH_THREAD, LOOP_THREAD]
            assert timers() == 0
        finally:
            node.stop()
        assert not any(t.name in (FLUSH_THREAD, LOOP_THREAD) for t in threading.enumerate())

    def test_promote_of_an_unknown_partition_keeps_the_connection(self, single):
        node, c = single
        c.put(b"k", b"v")
        with pytest.raises(ClientError) as err:
            c.promote(99)
        assert err.value.code == wire.ERR_BAD_REQUEST
        assert c.get(b"k") == b"v"

    def test_reads_are_served_while_a_write_syncs(self, single, monkeypatch):
        node, client = single
        client.put(b"r", b"1")
        real_fsync = os.fsync

        def slow_fsync(fd):
            time.sleep(0.5)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        lsns = []
        writer = threading.Thread(target=lambda: lsns.append(client.put(b"w", b"2")))
        t0 = time.monotonic()
        writer.start()
        with Client("127.0.0.1", node.port) as reader:
            time.sleep(0.1)  # the write is on the flusher now
            t1 = time.monotonic()
            assert reader.get(b"r") == b"1"
            read_s = time.monotonic() - t1
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert lsns and time.monotonic() - t0 >= 0.5  # the write waited for its sync
        assert read_s < 0.25

    def test_concurrent_writers_all_commit_under_a_short_switch_interval(self, single):
        """The loop and the flusher share only the two deques of sync jobs and
        results: with more writers than cores and a very short switch
        interval, no sync and no reply may be lost or delivered twice."""
        node, _ = single
        interval = sys.getswitchinterval()
        results = {}

        def write(w):
            with Client("127.0.0.1", node.port) as c:
                for i in range(150):
                    key = b"s%d-%d" % (w, i)
                    results[key] = (route(key, 2), c.put(key, b"v%d" % i))

        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=write, args=(w,)) for w in range(8)]
            for t in writers:
                t.start()
            deadline = time.monotonic() + 60
            for t in writers:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(t.is_alive() for t in writers)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(set(results.values())) == 8 * 150  # one LSN each
        with Client("127.0.0.1", node.port) as c:
            assert all(c.get(b"s%d-%d" % (w, i)) == b"v%d" % i
                       for w in range(8) for i in range(150))
        for pid, replica in node.replicas.items():
            assert replica.state.flushed == replica.log_end  # every sync came back

    def test_pipelined_gets_and_puts_are_answered_in_order(self, single):
        node, _ = single
        frames, expected = [], []
        for i in range(25):
            key, value = b"p%02d" % i, b"v%d" % i
            frames += [wire.encode_put(key, value), wire.encode_get(key)]
            expected += [(wire.MSG_OK, None), (wire.MSG_VALUE, value)]
        with socket.create_connection(("127.0.0.1", node.port), timeout=5.0) as s:
            s.sendall(b"".join(frames))
            replies = [wire.read_frame(s) for _ in frames]
        assert [t for t, _ in replies] == [t for t, _ in expected]
        # each GET follows its own PUT on the connection, so it reads that value
        assert [wire.decode_value(p) for (t, p) in replies if t == wire.MSG_VALUE] == [
            v for t, v in expected if t == wire.MSG_VALUE]

    def test_range_and_batch_get_behind_an_unanswered_put_keep_request_order(
            self, single, monkeypatch):
        node, c = single
        c.put(b"a", b"1")

        real_encode_frame = wire.encode_frame

        def encode_frame(msg_type, payload):
            assert msg_type not in (wire.MSG_RANGE_RESULT, wire.MSG_BATCH_RESULT), (
                "result frames are appended in place, not copied out of a payload")
            return real_encode_frame(msg_type, payload)

        monkeypatch.setattr(wire, "encode_frame", encode_frame)
        real_fsync = os.fsync

        def slow_fsync(fd):  # the PUT stays unanswered while the reads are served
            time.sleep(0.2)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", slow_fsync)
        frames = [wire.encode_put(b"b", b"2"), wire.encode_range(b"a", b"z", 0),
                  wire.encode_batch_get([b"b", b"x"]), wire.encode_range(b"b", b"z", 1)]
        with socket.create_connection(("127.0.0.1", node.port), timeout=5.0) as s:
            s.sendall(b"".join(frames))
            replies = [wire.read_frame(s) for _ in frames]
            assert [t for t, _ in replies] == [wire.MSG_OK, wire.MSG_RANGE_RESULT,
                                               wire.MSG_BATCH_RESULT, wire.MSG_RANGE_RESULT]
            # each read sees the PUT before it, though its ack came later
            assert wire.decode_range_result(replies[1][1]) == [(b"a", b"1"), (b"b", b"2")]
            assert wire.decode_batch_result(replies[2][1]) == [(b"b", b"2"), (b"x", None)]
            assert wire.decode_range_result(replies[3][1]) == [(b"b", b"2")]
            # with nothing unanswered ahead of it, a RANGE goes straight out
            s.sendall(wire.encode_range(b"a", b"b", 0))
            msg_type, payload = wire.read_frame(s)
            assert (msg_type, wire.decode_range_result(payload)) == (
                wire.MSG_RANGE_RESULT, [(b"a", b"1")])

    def test_frame_split_across_two_sends_is_answered_once(self, single):
        node, c = single
        c.put(b"split", b"value")
        frame = wire.encode_get(b"split")
        with socket.create_connection(("127.0.0.1", node.port), timeout=5.0) as s:
            s.sendall(frame[:len(frame) // 2])
            time.sleep(0.05)
            s.sendall(frame[len(frame) // 2:])
            msg_type, payload = wire.read_frame(s)
            assert (msg_type, wire.decode_value(payload)) == (wire.MSG_VALUE, b"value")
            s.settimeout(0.2)
            with pytest.raises(socket.timeout):
                s.recv(1)

    def test_frame_without_a_type_byte_closes_only_its_connection(self, single):
        node, c = single
        with socket.create_connection(("127.0.0.1", node.port), timeout=5.0) as s:
            s.sendall(b"\x00\x00\x00\x00" + wire.encode_stats())
            assert s.recv(1) == b""
        c.put(b"k", b"v")
        assert c.get(b"k") == b"v"

    def test_unknown_frame_type_errors_cleanly(self, single):
        node, _ = single
        with socket.create_connection(("127.0.0.1", node.port)) as s:
            s.sendall(wire.encode_frame(0x7F, b""))
            msg_type, payload = wire.read_frame(s)
            assert msg_type == wire.MSG_ERR
            code, _ = wire.decode_err(payload)
            assert code == wire.ERR_BAD_REQUEST


class TestCluster:
    def wait_follower(self, ports, nid, lsn, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with Client("127.0.0.1", ports[nid]) as c:
                for line in c.stats().splitlines():
                    fields = dict(kv.split("=") for kv in line.split())
                    if int(fields["flushed"]) >= lsn:
                        return
            time.sleep(0.02)
        raise AssertionError("follower never caught up")

    def test_write_on_follower_redirects(self, trio):
        _, ports = trio
        with Client("127.0.0.1", ports[1]) as c:
            with pytest.raises(NotLeaderError):
                c.put(b"k", b"v")

    def test_replicated_follower_read_with_session_lsn(self, trio):
        _, ports = trio
        with Client("127.0.0.1", ports[0]) as leader:
            last = 0
            for i in range(100):
                last = leader.put(b"key%03d" % i, b"v%d" % i)
        with Client("127.0.0.1", ports[1]) as follower:
            assert follower.get(b"key099", view_lsn=last) == b"v99"
        with Client("127.0.0.1", ports[2]) as follower:
            assert follower.get(b"key000", view_lsn=last) == b"v0"

    def test_follower_read_beyond_log_rejected(self, trio):
        from logstore.errors import ReadRejectedError
        _, ports = trio
        with Client("127.0.0.1", ports[0]) as leader:
            leader.put(b"k", b"v")
        self.wait_follower(ports, 1, 1)
        with Client("127.0.0.1", ports[1]) as follower:
            with pytest.raises(ReadRejectedError):
                follower.get(b"k", view_lsn=10_000)

    def test_manual_failover(self, trio):
        nodes, ports = trio
        with Client("127.0.0.1", ports[0]) as leader:
            last = 0
            for i in range(50):
                last = leader.put(b"k%02d" % i, b"v%d" % i)
        self.wait_follower(ports, 1, last)
        nodes[0].stop()
        nodes[0].stopped = True
        with Client("127.0.0.1", ports[1]) as c:
            c.promote(0)
            assert c.put(b"after", b"failover") > last
            assert c.get(b"after") == b"failover"
            assert c.get(b"k49") == b"v49"

    def test_restarted_follower_catches_up_without_new_writes(self, trio):
        nodes, ports = trio
        with Client("127.0.0.1", ports[0]) as leader:
            for i in range(20):
                leader.put(b"a%02d" % i, b"v")
            self.wait_follower(ports, 2, 20)
            config = nodes[2].config
            nodes[2].stop()
            for i in range(20):
                last = leader.put(b"b%02d" % i, b"w")
        # the leader's link to node 2 dropped; once it reconnects, the leader
        # resends what node 2 has not acked
        nodes[2] = ServerNode(config)
        nodes[2].start()
        self.wait_follower(ports, 2, last)
        with Client("127.0.0.1", ports[2]) as follower:
            assert follower.get(b"b19", view_lsn=last) == b"w"

    def test_dead_peer_buffers_nothing(self, tmp_path):
        ports = [free_port() for _ in range(3)]
        nodes = []
        for nid in (0, 1):  # node 2 never starts
            peers = {i: f"127.0.0.1:{ports[i]}" for i in range(3) if i != nid}
            cfg = NodeConfig(node_id=nid, listen=f"127.0.0.1:{ports[nid]}", peers=peers,
                             partitions=1, data_dir=str(tmp_path / f"n{nid}"), leader_node=0)
            nodes.append(ServerNode(cfg))
            nodes[-1].start()
        leader = nodes[0]
        # for each frame shipped to node 2: whether the core had marked it down
        # (the first frames go out while the first connect is in progress)
        to_node_2 = []
        send = leader.core.send

        def watched(peer, frame):
            if peer == 2:
                to_node_2.append(2 in leader.core.down)
            send(peer, frame)

        leader.core.send = watched
        try:
            with Client("127.0.0.1", ports[0]) as c:
                for i in range(2000):
                    assert c.put(b"d%04d" % i, b"v%d" % i) > 0
            assert 2 in leader.core.down
            assert True not in to_node_2 and len(to_node_2) < 10, len(to_node_2)
            # every write left the leader's memory with its reply
            assert not leader.replicas[0].records
            self.wait_follower(ports, 1, 2000)
        finally:
            for node in nodes:
                node.stop()

    def test_follower_hears_the_commit_point_without_waiting_for_a_heartbeat(self, trio):
        nodes, ports = trio
        follower_state = nodes[1].replicas[0].state
        times = []
        with Client("127.0.0.1", ports[0]) as leader, \
                Client("127.0.0.1", ports[1]) as follower:
            for i in range(20):
                lsn = leader.put(b"c%02d" % i, b"v%d" % i)
                while follower_state.flushed < lsn:  # else the read is rejected
                    time.sleep(0.0005)
                # no write follows: without a push the commit point would not
                # come until the next write
                t0 = time.perf_counter()
                assert follower.get(b"c%02d" % i, view_lsn=lsn) == b"v%d" % i
                times.append(time.perf_counter() - t0)
        times.sort()
        assert times[len(times) // 2] < 0.010, times

    def test_follower_sends_no_ack_the_leader_already_has(self, tmp_path):
        peers = {0: f"127.0.0.1:{free_port()}"}
        cfg = NodeConfig(node_id=1, listen="127.0.0.1:0", peers=peers, partitions=1,
                         data_dir=str(tmp_path / "n1"), leader_node=0)
        node = ServerNode(cfg)
        node.start()

        def append(commit, *lsns):
            records = [LogRecord(n, KIND_PUT, b"k%d" % n, b"v") for n in lsns]
            return wire.AppendEntries(0, 1, commit, records).encode()

        try:
            with socket.create_connection(("127.0.0.1", node.port), timeout=2) as s:
                # records, two commit-only frames, records: the two commit-only
                # frames leave the follower's flushed LSN where the first ack put it
                s.sendall(append(0, 1) + append(1) + append(1) + append(1, 2))
                acks = [wire.AppendAck.decode(wire.read_frame(s)[1], wire.MSG_APPEND_ACK)
                        for _ in range(2)]
                assert [a.last_flushed_lsn for a in acks] == [1, 2]
                s.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    s.recv(1)
            assert node.replicas[0].state.potential_commit == 1
        finally:
            node.stop()


class TestFollowerScanReadView:
    """A follower's RANGE and BATCH_GET wait for, or reject, the session's view
    LSN in each partition they touch, as a GET does in its one partition.
    LSNs count per partition, so the view is one LSN per partition."""

    @pytest.fixture
    def follower(self, tmp_path):
        peers = {0: f"127.0.0.1:{free_port()}"}  # a leader that is never there
        cfg = NodeConfig(node_id=1, listen="127.0.0.1:0", peers=peers, partitions=2,
                         data_dir=str(tmp_path / "n1"), leader_node=0)
        node = ServerNode(cfg)
        node.start()
        keys = {}  # one key per partition
        i = 0
        while len(keys) < 2:
            keys.setdefault(route(b"k%d" % i, 2), b"k%d" % i)
            i += 1
        with socket.create_connection(("127.0.0.1", node.port), timeout=5.0) as leader:
            for pid in (0, 1):  # LSN 1 in each partition, not yet committed
                leader.sendall(self.append(pid, 0, LogRecord(1, KIND_PUT, keys[pid], b"v")))
                wire.read_frame(leader)  # its ack
            yield node, leader, keys
        node.stop()

    @staticmethod
    def append(pid, commit, *records):
        return wire.AppendEntries(pid, 1, commit, list(records)).encode()

    @staticmethod
    def no_reply(s):
        s.settimeout(0.2)
        with pytest.raises(socket.timeout):
            s.recv(1)
        s.settimeout(5.0)

    def test_range_above_the_commit_point_blocks_until_every_partition_commits(
            self, follower):
        node, leader, keys = follower
        with socket.create_connection(("127.0.0.1", node.port), timeout=5.0) as s:
            s.sendall(wire.encode_range(b"k", b"l", 0, {0: 1, 1: 1}))
            self.no_reply(s)
            leader.sendall(self.append(0, 1))
            self.no_reply(s)  # partition 1 is still above its commit point
            leader.sendall(self.append(1, 1))
            msg_type, payload = wire.read_frame(s)
        assert (msg_type, wire.decode_range_result(payload)) == (
            wire.MSG_RANGE_RESULT, sorted((k, b"v") for k in keys.values()))

    def test_batch_get_waits_only_for_the_partitions_of_its_keys(self, follower):
        node, leader, keys = follower
        with socket.create_connection(("127.0.0.1", node.port), timeout=5.0) as s:
            s.sendall(wire.encode_batch_get([keys[0]], {0: 1, 1: 1}))
            self.no_reply(s)
            leader.sendall(self.append(0, 1))
            msg_type, payload = wire.read_frame(s)
        assert (msg_type, wire.decode_batch_result(payload)) == (
            wire.MSG_BATCH_RESULT, [(keys[0], b"v")])

    @pytest.mark.parametrize("scan", ["range", "batch_get"])
    def test_read_beyond_the_flushed_log_is_rejected(self, follower, scan):
        node, leader, keys = follower
        leader.sendall(self.append(0, 1, LogRecord(2, KIND_PUT, keys[0], b"w")))
        wire.read_frame(leader)  # partition 0 holds LSN 2 now; partition 1 does not
        with socket.create_connection(("127.0.0.1", node.port), timeout=5.0) as s:
            # partition 0 would block the read at LSN 2, partition 1 rejects it
            views = {0: 2, 1: 2}
            s.sendall(wire.encode_range(b"k", b"l", 0, views) if scan == "range"
                      else wire.encode_batch_get([keys[0], keys[1]], views))
            msg_type, payload = wire.read_frame(s)
        assert (msg_type, wire.decode_err(payload)[0]) == (wire.MSG_ERR, wire.ERR_REJECTED)

    @pytest.mark.parametrize("scan", ["range", "batch_get"])
    def test_a_view_is_gated_only_in_the_partitions_it_names(self, follower, scan):
        """Partition 0 at LSN 3, partition 1 at LSN 1: a view of LSN 3 in
        partition 0 serves, though partition 1 never reaches 3."""
        node, leader, keys = follower
        leader.sendall(self.append(0, 3, LogRecord(2, KIND_PUT, keys[0], b"w"),
                                   LogRecord(3, KIND_PUT, keys[0], b"x")))
        wire.read_frame(leader)
        leader.sendall(self.append(1, 1))
        with Client("127.0.0.1", node.port) as c:
            if scan == "range":
                assert c.range(b"k", b"l", views={0: 3}) == sorted(
                    [(keys[0], b"x"), (keys[1], b"v")])
            else:
                assert c.batch_get([keys[0], keys[1]], views={0: 3}) == [b"x", b"v"]
            with pytest.raises(ReadRejectedError):  # partition 1 has no LSN 3
                getattr(c, scan)(*([b"k", b"l"] if scan == "range" else [[keys[1]]]),
                                 views={0: 3, 1: 3})

    def test_client_sends_its_view_of_each_partition_with_scans(self, follower):
        node, leader, keys = follower
        leader.sendall(self.append(0, 1) + self.append(1, 1))
        with Client("127.0.0.1", node.port) as c:
            assert c.range(b"k", b"l") == sorted((k, b"v") for k in keys.values())
            c.views = {1: 5}  # as if it had written LSN 5 in partition 1 through the leader
            with pytest.raises(ReadRejectedError):
                c.range(b"k", b"l")
            assert c.batch_get([keys[0]]) == [b"v"]  # partition 0 is not in the view
            with pytest.raises(ReadRejectedError):
                c.batch_get([keys[1]])


class TestSessionViewPerPartition:
    """Two nodes, two partitions: a session that wrote only partition 0 reads
    a follower whose partition 1 is far below the session's LSNs."""

    @pytest.fixture
    def pair(self, tmp_path):
        ports = [free_port() for _ in range(2)]
        nodes = []
        for nid in range(2):
            cfg = NodeConfig(node_id=nid, listen=f"127.0.0.1:{ports[nid]}",
                             peers={1 - nid: f"127.0.0.1:{ports[1 - nid]}"}, partitions=2,
                             data_dir=str(tmp_path / f"n{nid}"), leader_node=0)
            nodes.append(ServerNode(cfg))
            nodes[-1].start()
        yield ports
        for node in nodes:
            node.stop()

    def test_follower_scans_serve_at_the_view_of_a_one_partition_writer(self, pair):
        keys = [k for k in (b"s%03d" % i for i in range(100)) if route(k, 2) == 0][:10]
        with Client("127.0.0.1", pair[0]) as leader:
            for key in keys:
                leader.put(key, b"v")
            leader.delete(keys[0])
            views = leader.views
            assert views == {0: 11}
        with Client("127.0.0.1", pair[1]) as follower:
            follower.views = views
            assert follower.range(b"s", b"t") == [(key, b"v") for key in sorted(keys[1:])]
            assert follower.batch_get(keys[:2]) == [None, b"v"]

    def test_follower_get_is_gated_on_its_keys_partition(self, pair):
        keys = [k for k in (b"g%03d" % i for i in range(100)) if route(k, 2) == 0][:10]
        other = next(k for k in (b"g%03d" % i for i in range(100)) if route(k, 2) == 1)
        with Client("127.0.0.1", pair[0]) as session:
            for key in keys:
                session.put(key, b"v")
            session.sock.close()  # the same session, now on the follower
            session.sock = socket.create_connection(("127.0.0.1", pair[1]))
            assert session.get(other) is None       # partition 1: nothing to wait for
            assert session.get(keys[-1]) == b"v"    # partition 0: at LSN 10
            with pytest.raises(ReadRejectedError):  # an explicit view still gates
                session.get(other, view_lsn=10)


class TestOneEventLoop:
    """server.py hands no work between threads: nothing to queue on or wait for."""

    SERVER = Path(logstore.__file__).parent / "server.py"

    @staticmethod
    def handoffs(source: str) -> list[str]:
        found = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                found += [alias.name for alias in node.names if alias.name == "queue"]
            elif isinstance(node, ast.ImportFrom) and node.module == "queue":
                found.append("queue")
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("RLock", "Event", "Condition"):
                    found.append(name)
        return found

    def test_server_imports_no_queue_and_makes_no_lock_event_or_condition(self):
        assert self.handoffs(self.SERVER.read_text()) == []

    @pytest.mark.parametrize("added", [
        "import queue", "from queue import Queue", "lock = threading.RLock()",
        "done = threading.Event()", "from threading import Condition\ncv = Condition()",
    ])
    def test_guard_fails_on_a_copy_with_one_added(self, added):
        assert self.handoffs(self.SERVER.read_text() + "\n" + added + "\n")
