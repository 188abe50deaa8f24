"""TCP server nodes on localhost: client API, replication, restart."""

import socket
import threading
import time

import pytest

from logstore.client import Client, ClientError
from logstore.config import NodeConfig
from logstore.errors import NotLeaderError
from logstore.server import ServerNode
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

    def test_put_commits_when_its_executor_signal_meets_a_full_queue(self, tmp_path):
        cfg = NodeConfig(node_id=0, listen="127.0.0.1:0", partitions=1, queue_depth=4,
                         data_dir=str(tmp_path / "n0"))
        node = ServerNode(cfg)
        node.start()
        held = threading.Event()
        release = threading.Event()

        def hold():
            held.set()
            release.wait(5.0)

        q = node.queues[0]
        q.put(("work", hold))
        assert held.wait(5.0)
        while not q.full():
            q.put(("work", lambda: None))
        # the PUT's signal finds the queue full; its executor stays busy for
        # longer than the old blocking put waited before giving the signal up
        timer = threading.Timer(1.5, release.set)
        timer.start()
        try:
            with Client("127.0.0.1", node.port) as c:
                t0 = time.monotonic()
                assert c.put(b"k", b"v") > 0
                assert time.monotonic() - t0 < 5.0
                assert c.get(b"k") == b"v"
        finally:
            release.set()
            timer.cancel()
            node.stop()

    def test_one_heartbeat_thread_after_promotion(self, single):
        node, c = single

        def heartbeats():
            return [t for t in node._threads if t.name == "logstore-hb" and t.is_alive()]

        assert len(heartbeats()) == 1
        c.promote(1)  # the node already leads partition 0
        assert len(heartbeats()) == 1

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
