"""Simulated-time cost-model scenarios, each emitting a CSV with a fixed
column set.

Both scenarios run the simulated cluster, so their times come from its link
and executor cost model, not from this machine, and are reproducible from a
seed; nothing here touches real sockets.  Wall-clock numbers come from
perfbench, which runs real node processes.
"""

from __future__ import annotations

import csv
import shutil
import tempfile
from pathlib import Path

from .simnet import ExecModel, LinkConfig, SimCluster
from .workload import WorkloadSpec, KeyGenerator, encode_key

SCENARIOS = {}


def scenario(name):
    def deco(fn):
        SCENARIOS[name] = fn
        return fn
    return deco


def _writer(out_path: str, columns: list[str]):
    fh = open(out_path, "w", newline="")
    w = csv.DictWriter(fh, fieldnames=columns)
    w.writeheader()
    return fh, w


@scenario("write-scaling")
def write_scaling(out_path: str, seed: int = 7, ops: int = 20_000) -> None:
    """Cost model: sim-time write throughput as partition count grows,
    3-node cluster."""
    fh, w = _writer(out_path, ["partitions", "ops", "sim_seconds", "ops_per_sec"])
    base = Path(tempfile.mkdtemp(prefix="logstore-bench-"))
    try:
        for parts in (1, 2, 4):
            cluster = SimCluster(
                base / f"p{parts}", nodes=3, partitions=parts, seed=seed,
                link=LinkConfig(delay=0.0005),
                exec_model=ExecModel(per_record=0.00005, batch_overhead=0.0001),
            )
            try:
                gen = KeyGenerator(WorkloadSpec(distribution="uniform",
                                                key_max=50_000, seed=seed))
                for _ in range(ops):
                    cluster.put(gen.next_key(), b"x" * 100)
                cluster.run_idle()
                elapsed = cluster.transport.now
                w.writerow({"partitions": parts, "ops": ops,
                            "sim_seconds": round(elapsed, 6),
                            "ops_per_sec": round(ops / elapsed, 1)})
            finally:
                cluster.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)
        fh.close()


@scenario("freshness")
def freshness(out_path: str, seed: int = 7, duration: float = 5.0) -> None:
    """Cost model: follower freshness score sampled every 20 ms of sim time
    under a steady write load."""
    fh, w = _writer(out_path, ["time", "node", "partition", "freshness"])
    base = Path(tempfile.mkdtemp(prefix="logstore-bench-"))
    cluster = SimCluster(base, nodes=3, partitions=1, seed=seed,
                         link=LinkConfig(delay=0.002, jitter=0.001))
    try:
        interval = 0.001  # 1k writes/s
        for i in range(int(duration / interval)):
            cluster.transport.schedule_at(
                i * interval,
                lambda i=i: cluster.put(encode_key(i), b"x" * 128),
            )
        followers = [nid for nid in cluster.nodes if nid != cluster.leader_map[0]]
        t = 0.02
        while t < duration:
            cluster.run(until=t)
            for node_id in followers:
                w.writerow({"time": round(t, 3), "node": node_id, "partition": 0,
                            "freshness": round(cluster.freshness(0, node_id), 6)})
            t += 0.02
        cluster.run_idle()
    finally:
        cluster.close()
        shutil.rmtree(base, ignore_errors=True)
        fh.close()


def run_scenario(name: str, out_path: str, seed: int = 7) -> None:
    if name not in SCENARIOS:
        raise SystemExit(f"unknown scenario {name!r}; choose from "
                         f"{', '.join(sorted(SCENARIOS))}")
    SCENARIOS[name](out_path, seed=seed)
