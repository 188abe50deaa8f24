"""Command-line surface: serve and client commands end to end."""

import socket
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

    @pytest.mark.parametrize("command", [
        ["range", "a", "z", "ten"], ["range", "a", "z", "-1"], ["promote", "zero"]])
    def test_non_numeric_argument_exits_1_with_an_error_line(self, server, capsys, command):
        assert main(["cli", "--addr", self.addr(server), *command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("addr", ["127.0.0.1:notaport", "127.0.0.1:70000", "127.0.0.1"])
    def test_bad_addr_port_exits_1_with_an_error_line(self, capsys, addr):
        assert main(["cli", "--addr", addr, "stats"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_refused_connection_exits_1_with_an_error_line(self, capsys):
        with socket.socket() as s:  # a port that was just free: nothing listens on it
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        assert main(["cli", "--addr", f"127.0.0.1:{port}", "stats"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "refused" in err.lower()


class TestServeCommand:
    def test_bad_config_value_exits_1_without_a_traceback(self, tmp_path, capsys):
        conf = tmp_path / "node.conf"
        conf.write_text("listen = 127.0.0.1:notaport\n")
        assert main(["serve", "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "listen" in err
        assert "Traceback" not in err

    def test_segment_bytes_beyond_4_gib_exits_1_without_a_traceback(self, tmp_path, capsys):
        conf = tmp_path / "node.conf"
        conf.write_text(f"data_dir = {tmp_path / 'data'}\nsegment_bytes = 5000000000\n")
        assert main(["serve", "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "segment_bytes" in err
        assert "Traceback" not in err
