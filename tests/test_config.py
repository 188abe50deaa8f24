"""Config file parsing and validation."""

import pytest

from logstore.config import NodeConfig, parse_config_file
from logstore.errors import ConfigError
from logstore.wal import MAX_SEGMENT_BYTES


def write(tmp_path, text):
    p = tmp_path / "node.conf"
    p.write_text(text)
    return p


class TestParsing:
    def test_full_file(self, tmp_path):
        p = write(tmp_path, """
            # cluster node 1
            node_id = 1
            listen = 127.0.0.1:7401
            peers = 0@127.0.0.1:7400, 2@127.0.0.1:7402
            partitions = 4
            data_dir = /tmp/n1
            cache_bytes = 1048576
            cooling_fraction = 0.15
            flush_policy = os
            leader_node = 0
        """)
        cfg = NodeConfig.load(p)
        assert cfg.node_id == 1
        assert cfg.peers == {0: "127.0.0.1:7400", 2: "127.0.0.1:7402"}
        assert cfg.partitions == 4
        assert cfg.cooling_fraction == 0.15
        assert cfg.flush_policy == "os"
        assert cfg.addr_tuple() == ("127.0.0.1", 7401)

    def test_defaults_without_file(self):
        cfg = NodeConfig.load()
        assert cfg.node_id == 0 and cfg.peers == {}
        assert cfg.flush_policy == "group"

    def test_overrides_beat_file(self, tmp_path):
        p = write(tmp_path, "node_id = 1\ndata_dir = /a")
        cfg = NodeConfig.load(p, {"node_id": "2", "data_dir": "/b"})
        assert cfg.node_id == 2 and cfg.data_dir == "/b"

    def test_env_var_overrides_data_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOGSTORE_DATA_DIR", "/from-env")
        cfg = NodeConfig.load(write(tmp_path, "data_dir = /from-file"))
        assert cfg.data_dir == "/from-env"

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        values = parse_config_file(write(tmp_path, "\n# c\n\nseed = 9\n"))
        assert values == {"seed": "9"}


class TestValidation:
    def test_malformed_line(self, tmp_path):
        with pytest.raises(ConfigError):
            NodeConfig.load(write(tmp_path, "not a key value line"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError):
            NodeConfig.load(write(tmp_path, "wat = 1"))

    def test_own_id_in_peers(self, tmp_path):
        with pytest.raises(ConfigError):
            NodeConfig.load(write(tmp_path, "node_id = 1\npeers = 1@h:1"))

    def test_bad_peer_spec(self, tmp_path):
        with pytest.raises(ConfigError):
            NodeConfig.load(write(tmp_path, "peers = nohostport"))

    def test_bad_flush_policy(self, tmp_path):
        with pytest.raises(ConfigError):
            NodeConfig.load(write(tmp_path, "flush_policy = sometimes"))

    def test_bad_partition_count(self, tmp_path):
        with pytest.raises(ConfigError):
            NodeConfig.load(write(tmp_path, "partitions = 0"))

    @pytest.mark.parametrize("key", ["max_batch", "queue_depth"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_batch_and_queue_must_be_positive(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            NodeConfig.load(write(tmp_path, f"{key} = {value}"))
        with pytest.raises(ConfigError, match=key):
            NodeConfig.load(overrides={key: value})

    def test_batch_and_queue_of_one_load(self, tmp_path):
        cfg = NodeConfig.load(write(tmp_path, "max_batch = 1\nqueue_depth = 1"))
        assert (cfg.max_batch, cfg.queue_depth) == (1, 1)

    @pytest.mark.parametrize("line, key", [
        ("partitions = four", "partitions"),
        ("seed = 1.5", "seed"),
        ("peers = x@127.0.0.1:7401", "peers"),
        ("peers = 1@127.0.0.1", "peers"),
        ("peers = 1@127.0.0.1:65536", "peers"),
        ("listen = 127.0.0.1:notaport", "listen"),
        ("listen = 127.0.0.1:-1", "listen"),
        ("cooling_fraction = much", "cooling_fraction"),
        ("cooling_fraction = 1.5", "cooling_fraction"),
        ("cooling_fraction = 0", "cooling_fraction"),
        ("segment_bytes = 0", "segment_bytes"),
        (f"segment_bytes = {MAX_SEGMENT_BYTES + 1}", "segment_bytes"),
        ("segment_bytes = 5000000000", "segment_bytes"),
    ])
    def test_bad_value_is_a_config_error_naming_its_key(self, tmp_path, line, key):
        with pytest.raises(ConfigError, match=key):
            NodeConfig.load(write(tmp_path, line))

    def test_segment_bytes_of_4_gib_loads(self, tmp_path):
        cfg = NodeConfig.load(write(tmp_path, f"segment_bytes = {MAX_SEGMENT_BYTES}"))
        assert cfg.segment_bytes == MAX_SEGMENT_BYTES

    def test_edge_ports_load(self, tmp_path):
        cfg = NodeConfig.load(write(tmp_path, "listen = 127.0.0.1:0\npeers = 1@h:65535"))
        assert cfg.addr_tuple() == ("127.0.0.1", 0)
        assert cfg.addr_tuple(cfg.peers[1]) == ("h", 65535)
