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
from logstore.errors import NotLeaderError
from logstore.replication import HEARTBEAT_INTERVAL
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
        assert "flushed=" in text and "replayed=" in text

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

    def test_one_loop_thread_and_one_heartbeat_timer_after_promotion(self, tmp_path):
        cfg = NodeConfig(node_id=0, listen="127.0.0.1:0", partitions=2,
                         data_dir=str(tmp_path / "n0"))
        node = ServerNode(cfg)
        before = set(threading.enumerate())
        node.start()

        def heartbeat_timers():
            # sampled from outside the loop, which pops a timer before it
            # pushes the next one: the most seen at once is the number armed
            seen = []
            for _ in range(20):
                seen.append(sum(t[2] == node._heartbeat for t in list(node._timers)))
                time.sleep(0.005)
            return max(seen)

        def new_threads():
            return sorted(t.name for t in set(threading.enumerate()) - before)

        try:
            # the loop, and the flusher that runs the leader's fsyncs
            assert new_threads() == [FLUSH_THREAD, LOOP_THREAD]
            assert heartbeat_timers() == 1
            with Client("127.0.0.1", node.port) as c:
                for i in range(20):  # writes and their syncs start no thread
                    c.put(b"k%d" % i, b"v")
                c.promote(1)  # the node already leads partition 1
            assert new_threads() == [FLUSH_THREAD, LOOP_THREAD]
            assert heartbeat_timers() == 1
        finally:
            node.stop()
        assert not any(t.name in (FLUSH_THREAD, LOOP_THREAD) for t in threading.enumerate())

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
        # measured on the loop thread right after each frame shipped to node 2,
        # once its first connect has failed (until then the link is connecting)
        buffered = []
        send = leader.core.send

        def watched(peer, frame):
            send(peer, frame)
            if peer == 2 and 2 in leader._owed:
                link = leader.links[2]
                buffered.append(len(link.out) if link is not None else 0)

        leader.core.send = watched
        try:
            with Client("127.0.0.1", ports[0]) as c:
                for i in range(2000):
                    assert c.put(b"d%04d" % i, b"v%d" % i) > 0
            assert len(buffered) >= 1900 and max(buffered) == 0
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
                # no write follows: without a push the commit point would come
                # with the next heartbeat, up to HEARTBEAT_INTERVAL later
                t0 = time.perf_counter()
                assert follower.get(b"c%02d" % i, view_lsn=lsn) == b"v%d" % i
                times.append(time.perf_counter() - t0)
        times.sort()
        assert times[len(times) // 2] < HEARTBEAT_INTERVAL / 5, times

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
