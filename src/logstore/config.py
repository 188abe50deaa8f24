"""Line-oriented `key = value` config files; flags override file values."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .wal import MAX_SEGMENT_BYTES


def parse_config_file(path: Path | str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


@dataclass
class NodeConfig:
    node_id: int = 0
    listen: str = "127.0.0.1:7400"
    # peers: "1@127.0.0.1:7401,2@127.0.0.1:7402"
    peers: dict[int, str] = field(default_factory=dict)
    partitions: int = 1
    data_dir: str = "./logstore-data"
    cache_bytes: int = 64 * 1024 * 1024
    cooling_fraction: float = 0.10
    flush_policy: str = "group"
    segment_bytes: int = 64 * 1024 * 1024
    max_batch: int = 64
    queue_depth: int = 1024
    leader_node: int = 0
    seed: int = 0

    @classmethod
    def load(cls, path: Path | str | None = None, overrides: dict | None = None) -> "NodeConfig":
        values: dict[str, str] = {}
        if path is not None:
            values.update(parse_config_file(path))
        for key, val in (overrides or {}).items():
            if val is not None:
                values[key] = str(val)
        cfg = cls()
        for key, raw in values.items():
            try:
                if key == "peers":
                    peers = {}
                    for part in filter(None, (p.strip() for p in raw.split(","))):
                        if "@" not in part:
                            raise ConfigError(f"bad peer spec {part!r}")
                        nid, _, addr = part.partition("@")
                        cfg.addr_tuple(addr)
                        peers[int(nid)] = addr
                    cfg.peers = peers
                elif key in ("node_id", "partitions", "cache_bytes", "segment_bytes",
                             "max_batch", "queue_depth", "leader_node", "seed"):
                    setattr(cfg, key, int(raw))
                elif key == "cooling_fraction":
                    cfg.cooling_fraction = float(raw)
                elif key == "listen":
                    cfg.listen = raw
                    cfg.addr_tuple()  # a bad port fails here, not at bind
                elif key in ("data_dir", "flush_policy"):
                    setattr(cfg, key, raw)
                else:
                    raise ConfigError(f"unknown config key {key!r}")
            except ValueError:
                raise ConfigError(f"bad value for {key}: {raw!r}") from None
        env_dir = os.environ.get("LOGSTORE_DATA_DIR")
        if env_dir:
            cfg.data_dir = env_dir
        if cfg.node_id in cfg.peers:
            raise ConfigError(f"duplicate node id {cfg.node_id} in peers")
        # a max_batch of 0 would execute nothing and spin the event loop
        for key in ("partitions", "max_batch", "queue_depth"):
            if getattr(cfg, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if cfg.flush_policy not in ("group", "os"):
            raise ConfigError(f"unknown flush policy {cfg.flush_policy!r}")
        if not 0.0 < cfg.cooling_fraction < 1.0:
            raise ConfigError("cooling_fraction must be in (0, 1)")
        if not 0 < cfg.segment_bytes <= MAX_SEGMENT_BYTES:  # the index keeps 32-bit offsets
            raise ConfigError(f"segment_bytes must be in (0, {MAX_SEGMENT_BYTES}]")
        return cfg

    def addr_tuple(self, addr: str | None = None) -> tuple[str, int]:
        """`host:port` as a (host, port) pair; ValueError on a bad port."""
        host, _, port = (addr or self.listen).rpartition(":")
        if not 0 <= int(port) <= 0xFFFF:
            raise ValueError(f"port {port} out of range")
        return host, int(port)
