"""Command-line surface: bench subcommand and client commands end to end."""

import threading

import pytest

from logstore.cli import main
from logstore.config import NodeConfig
from logstore.server import ServerNode


@pytest.fixture
def server(tmp_path):
    cfg = NodeConfig(node_id=0, listen="127.0.0.1:0", partitions=1,
                     data_dir=str(tmp_path / "data"))
    node = ServerNode(cfg)
    node.start()
    yield node
    node.stop()


class TestClientCommands:
    def addr(self, node):
        return f"127.0.0.1:{node.port}"

    def test_put_get_del(self, server, capsys):
        assert main(["cli", "--addr", self.addr(server), "put", "k1", "hello"]) == 0
        assert "OK lsn=1" in capsys.readouterr().out
        assert main(["cli", "--addr", self.addr(server), "get", "k1"]) == 0
        assert capsys.readouterr().out.strip() == "hello"
        assert main(["cli", "--addr", self.addr(server), "del", "k1"]) == 0
        assert main(["cli", "--addr", self.addr(server), "get", "k1"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "(nil)"

    def test_range_and_batchget(self, server, capsys):
        for i in range(5):
            main(["cli", "--addr", self.addr(server), "put", f"k{i}", f"v{i}"])
        capsys.readouterr()
        main(["cli", "--addr", self.addr(server), "range", "k1", "k4"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["k1\tv1", "k2\tv2", "k3\tv3"]
        main(["cli", "--addr", self.addr(server), "batchget", "k0", "nope"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["k0\tv0", "nope\t(nil)"]

    def test_stats(self, server, capsys):
        assert main(["cli", "--addr", self.addr(server), "stats"]) == 0
        assert "role=leader" in capsys.readouterr().out

    def test_bad_command_exits_nonzero(self, server, capsys):
        assert main(["cli", "--addr", self.addr(server), "put", "only-key"]) == 2


class TestBenchCommand:
    def test_bench_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        # smallest scenario invocation that exercises the full path
        rc = main(["bench", "--scenario", "freshness",
                   "--out", str(out), "--seed", "3"])
        assert rc == 0
        assert out.exists() and out.read_text().startswith("time,")
