"""Node processes on localhost: start, control, SIGKILL, restart.

Every process started here is registered with its Cluster, and
`Cluster.close` kills and reaps all of them; run.py calls it on every exit
path.  Run data lives in one temporary directory inside the checkout, which
`close` removes.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
NODE_PY = HERE / "node.py"
TMP_ROOT = HERE.parent / ".perfbench-tmp"

# every node process hashes strings the same way, whatever the hash seed of
# the benchmark process, so dict and set layouts do not differ run to run
NODE_ENV_HASHSEED = "0"


def reserve_ports(n: int) -> list[int]:
    """Ports the kernel hands out as free; held open together so they differ."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def peak_rss_kib(pid: int) -> int:
    """VmHWM: the most resident memory the process has had."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dir_bytes(path: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


class NodeProc:
    """One node process and its stdin/stdout control channel."""

    def __init__(self, config: dict, workdir: Path, trace: bool):
        self.config = config
        self.node_id = config["node_id"]
        self.workdir = workdir
        self.trace = trace
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.starts = 0

    def start(self) -> None:
        cfg_path = self.workdir / f"node{self.node_id}.conf"
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in self.config.items()))
        env = dict(os.environ, PYTHONHASHSEED=NODE_ENV_HASHSEED)
        env.pop("LOGSTORE_DATA_DIR", None)
        cmd = [sys.executable, str(NODE_PY), "--config", str(cfg_path)]
        if self.trace:
            cmd.append("--trace")
        self.starts += 1
        log_path = self.workdir / f"node{self.node_id}.{self.starts}.log"
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                text=True, env=env,
            )
        line = self.proc.stdout.readline()
        if not line.startswith("ready "):
            self.kill()
            tail = log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"node {self.node_id} did not start: {line!r}\n{tail}")
        self.port = int(line.split()[1])

    def command(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"node {self.node_id} closed its control channel")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"node {self.node_id}: {reply['error']}")
        return reply

    def peak_rss_kib(self) -> int:
        return peak_rss_kib(self.proc.pid)

    def kill(self) -> None:
        """SIGKILL and reap; no graceful stop, no final checkpoint."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Cluster:
    """The node processes of one run and the temporary directory they use."""

    def __init__(self):
        TMP_ROOT.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
        self.nodes: list[NodeProc] = []

    def new_dir(self, name: str) -> Path:
        path = self.root / name
        path.mkdir()
        return path

    def add(self, config: dict, trace: bool) -> NodeProc:
        node = NodeProc(config, self.root, trace)
        self.nodes.append(node)
        node.start()
        return node

    def kill_all(self) -> None:
        for node in self.nodes:
            node.kill()
        self.nodes = []

    def close(self) -> None:
        self.kill_all()
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
