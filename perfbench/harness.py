"""One benchmark run: set-up, timed phase, crash restarts, checks, metrics."""

from __future__ import annotations

import gc
import random
import shutil
import statistics
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, perf_counter_ns

from cluster import Cluster, dir_bytes, reserve_ports
from workloads import (
    RANGE_LIMIT, VERIFY_CHUNK, Loader, Model, Spec, Values, dec, enc, percentile, run_threads,
)

LAG_SAMPLE_S = 0.05

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "get_p50_us": "us", "put_p50_us": "us",
    "recovery_s": "s", "node_rss_mib": "MiB", "space_amp": "ratio",
}
LAYER_UNITS = {
    "client.get_p99_us": "us",
    "client.put_p99_us": "us",
    "server.get_overhead_us": "us",
    "server.put_overhead_us": "us",
    "wire.append_encode_us_per_record": "us",
    "wire.append_decode_us_per_record": "us",
    "wire.frames_per_put": "count",
    "replication.queue_wait_us": "us",
    "replication.exec_batch_us": "us",
    "replication.ops_per_batch": "count",
    "replication.commit_wait_us": "us",
    "replication.append_entries_us": "us",
    "replication.records_per_append": "count",
    "replication.nacks_per_1k_puts": "count",
    "replication.follower_lag_lsn": "lsn",
    "replication.leader_records_held": "count",
    "engine.apply_put_us": "us",
    "engine.cached_get_us": "us",
    "engine.cold_get_us": "us",
    "engine.range_us": "us",
    "art.put_us": "us",
    "art.get_us": "us",
    "art.remove_us": "us",
    "art.range_us": "us",
    "art.snapshot_write_s": "s",
    "art.snapshot_load_us_per_entry": "us",
    "cache.hit_ratio": "ratio",
    "cache.get_us": "us",
    "cache.admit_us": "us",
    "wal.append_us": "us",
    "wal.flush_us": "us",
    "wal.fsyncs_per_put": "ratio",
    "wal.read_at_us": "us",
    "wal.point_reads_per_get": "ratio",
    "wal.bytes_written_per_user_byte": "ratio",
    "wal.decode_record_us": "us",
    "wal.replay_tail_s": "s",
    "recovery.recover_store_s": "s",
    "recovery.records_replayed": "count",
    "recovery.checkpoint_s": "s",
    "recovery.process_start_s": "s",
}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Run:
    def __init__(self, spec: Spec, seed: int, seconds: int, trace: bool):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cluster = Cluster()
        self.clients: list = []
        self.failures: list[str] = []
        self.tracer = None
        if trace:
            from tracer import Tracer, install_preload_spans

            self.tracer = Tracer()
            install_preload_spans(self.tracer)

    def close(self) -> None:
        self._close_clients()
        self.cluster.close()

    def _close_clients(self) -> None:
        for c in self.clients:
            c.close()
        self.clients = []

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    # -- set-up -------------------------------------------------------------

    def _preload(self, root: Path, values: Values) -> list[int]:
        """Load every key at version 0 through the engine; returns the LSNs."""
        from logstore.engine import Store

        spec = self.spec
        store = Store(root, partitions=spec.partitions, cache_bytes=spec.cache_bytes,
                      flush_policy="group")
        lsns = [0] * spec.keys
        try:
            for k in range(spec.keys):
                key = enc(k)
                lsns[k] = store.partition_for(key).apply_put(key, values.make(k, 0))
            for p in store.partitions:
                p.flush()
            store.checkpoint()
        finally:
            store.close()
        return lsns

    def _node_config(self, node_id: int, data_dir: Path, ports: list[int]) -> dict:
        cfg = {
            "node_id": node_id,
            "listen": f"127.0.0.1:{ports[node_id] if ports else 0}",
            "partitions": self.spec.partitions,
            "data_dir": str(data_dir),
            "leader_node": 0,
            "flush_policy": "group",
            "cache_bytes": self.spec.cache_bytes,
        }
        if len(ports) > 1:
            cfg["peers"] = ", ".join(
                f"{i}@127.0.0.1:{p}" for i, p in enumerate(ports) if i != node_id
            )
        return cfg

    def setup(self, rep: int) -> float:
        """Preload, start the node(s), fill the caches, warm up; returns seconds."""
        spec = self.spec
        t0 = perf_counter()
        work = self.cluster.new_dir(f"setup{rep}")
        values = Values(spec.value_size, self.seed)
        self.model = model = Model(spec.keys, values)
        dirs = [work / f"n{i}" for i in range(spec.nodes)]
        lsns = self._preload(dirs[0], values)
        for d in dirs[1:]:
            shutil.copytree(dirs[0], d)
        ports = reserve_ports(spec.nodes) if spec.nodes > 1 else []
        self.dirs = dirs
        self.nodes = [
            self.cluster.add(self._node_config(i, d, ports), self.trace)
            for i, d in enumerate(dirs)
        ]
        rngs = [random.Random(f"{self.seed}:{i}") for i in range(2)]
        if spec.nodes == 1:
            half = spec.keys // 2
            slices = [(0, half), (half, spec.keys)]
        else:
            model.history = [[(lsn, 0)] for lsn in lsns]
            slices = [(0, spec.keys), (0, spec.keys)]
        self.loaders = [Loader(spec, model, None, lo, hi, rng)
                        for (lo, hi), rng in zip(slices, rngs)]
        self._connect()
        self._warm(f"set-up {rep}", check_follower=True)
        return perf_counter() - t0

    def _connect(self) -> None:
        """One client per load connection; in replicated-rw the writer talks
        to the leader and the reader to follower 1."""
        from logstore.client import Client

        targets = self.nodes[:1] * 2 if self.spec.nodes == 1 else self.nodes[:2]
        self.clients = [Client("127.0.0.1", n.port) for n in targets]
        for loader, client in zip(self.loaders, self.clients):
            loader.client = client

    def _warm(self, label: str, check_follower: bool) -> None:
        """One ordered scan of every key on each node the load reads from
        (it fills the cache and checks the state), then the warm-up ops.

        A follower's scan is checked only before the first write: it is not
        gated by a read view, so afterwards it may trail the quorum.
        """
        self.check(self._verify_all(self.clients[0]),
                   f"{label}: state differs from acknowledged writes")
        if self.spec.nodes > 1:
            same = self._verify_all(self.clients[1])
            self.check(same or not check_follower, f"{label}: follower state differs")
        self._load(ops=self.spec.warmup_ops)

    def _check_untimed_answers(self) -> None:
        """Only timed-phase ops are reported as attempted and failed, so a
        wrong answer in the set-up, history or warm-up fails the run."""
        for loader in self.loaders:
            self.check(loader.failed == 0, f"wrong answers outside the timed phase: "
                       f"{loader.errors}")

    def teardown_setup(self) -> None:
        self._check_untimed_answers()
        self._close_clients()
        self.cluster.kill_all()
        shutil.rmtree(self.dirs[0].parent, ignore_errors=True)

    # -- load ---------------------------------------------------------------

    def _load(self, stop_ns: int | None = None, ops: int | None = None) -> None:
        a, b = self.loaders
        if self.spec.nodes == 1:
            targets = [lambda: a.mixed(stop_ns, ops), lambda: b.mixed(stop_ns, ops)]
        else:
            targets = [lambda: a.writer(stop_ns, ops), lambda: b.reader(a, stop_ns, ops)]
        run_threads(targets)

    def _verify_all(self, client) -> bool:
        """Every key in one ordered walk equals the model, deleted keys absent."""
        n = self.spec.keys
        got: list = []
        start = 0
        while start < n:
            chunk = client.range(enc(start), enc(n), VERIFY_CHUNK)
            got.extend(chunk)
            if len(chunk) < VERIFY_CHUNK:
                break
            start = dec(chunk[-1][0]) + 1
        return got == self.model.expected_range(0, n, None)

    def timed_phase(self) -> dict:
        self._check_untimed_answers()
        for loader in self.loaders:
            loader.reset_stats()
        if self.trace:
            for node in self.nodes:
                node.command("reset")
        base = [node.command("dump") for node in self.nodes]
        samples: list[list[dict]] = []
        with _collector_paused():
            start_ns = perf_counter_ns()
            self._drive(start_ns + self.seconds * 1_000_000_000, samples)
        end = [node.command("dump") for node in self.nodes]
        return {"base": base, "end": end, "windows": self._windows(start_ns),
                "samples": samples}

    def _drive(self, stop_ns: int, samples: list) -> None:
        if not self.trace:
            self._load(stop_ns)
            return
        runner = threading.Thread(target=self._load, args=(stop_ns,), daemon=True)
        runner.start()
        while runner.is_alive():
            # follower first: the leader's frontier read after it is >= the
            # one it had when the follower answered
            follower = [n.command("state")["replicas"] for n in self.nodes[1:2]]
            samples.append([self.nodes[0].command("state")["replicas"], *follower])
            runner.join(LAG_SAMPLE_S)

    def _windows(self, start_ns: int) -> dict:
        """Completed ops and latencies per one-second window of the timed phase.

        The end-to-end rate and medians are medians over these windows, so a
        burst of host noise in a second or two does not move them.
        """
        n = self.seconds
        counts = [0] * n
        lat: dict[str, list[list[int]]] = {}
        for loader in self.loaders:
            for op, ends in loader.ends.items():
                cells = lat.setdefault(op, [[] for _ in range(n)])
                for end, d in zip(ends, loader.lat[op]):
                    w = (end - start_ns) // 1_000_000_000
                    if w < n:
                        counts[w] += 1
                        cells[w].append(d)
        p50 = {op: [statistics.median(c) / 1000 for c in cells if c]
               for op, cells in lat.items()}
        return {"ops_per_s": counts, "p50_us": p50}

    # -- crash restarts -----------------------------------------------------

    def write_history(self) -> dict:
        """A fixed, seeded number of ops, then the state the nodes hold.

        Memory, space and the restarts are measured on this history rather
        than on the timed phase, whose write count follows the speed of the
        run: a faster write path must not read as more memory, more space
        and a longer replay.
        """
        self._load(ops=self.spec.history_ops)
        rss_kib = sum(node.peak_rss_kib() for node in self.nodes)
        stored = sum(dir_bytes(d) for d in self.dirs)
        return {"rss_kib": rss_kib, "space_amp": stored / self.model.live_bytes()}

    def crash_restarts(self) -> list[dict]:
        """SIGKILL node 0 (the leader), restart it, time the first correct GET."""
        self._close_clients()
        victim = self.nodes[0]
        probe = self.loaders[0].last_key
        expected_records = sum(loader.all_writes for loader in self.loaders)
        out = []
        for cycle in range(self.spec.recovery_cycles):
            with _collector_paused():
                out.append(self._restart(victim, probe, cycle))
            dump = out[-1]["dump"]
            replayed = dump["counters"]["records_replayed"]
            self.check(replayed == expected_records,
                       f"restart {cycle}: replayed {replayed} records, "
                       f"{expected_records} written since the checkpoint")
        return out

    def _restart(self, victim, probe: int, cycle: int) -> dict:
        from logstore.client import Client

        victim.kill()
        t0 = perf_counter()
        victim.start()
        with Client("127.0.0.1", victim.port) as client:
            got = client.get(enc(probe))
            took = perf_counter() - t0
            self.check(got == self.model.expected(probe),
                       f"restart {cycle}: probe key {probe} wrong")
            dump = victim.command("dump")
            self.check(self._verify_all(client),
                       f"restart {cycle}: state differs from acknowledged writes")
        return {"recovery_s": took, "dump": dump}

    # -- metrics ------------------------------------------------------------

    def execute(self) -> dict:
        setups = []
        for rep in range(self.spec.setup_reps):
            if rep:
                self.teardown_setup()
            setups.append(self.setup(rep))
        state = self.write_history()
        restarts = self.crash_restarts()
        self._connect()
        self._warm("after the restarts", check_follower=False)
        timed = self.timed_phase()
        win = timed["windows"]
        loaders = self.loaders
        lat = {op: sorted(x for l in loaders for x in l.lat[op]) for op in loaders[0].lat}
        attempted = sum(l.attempted for l in loaders)
        failed = sum(l.failed for l in loaders)
        for l in loaders:
            self.check(not l.broken, f"a load connection stopped: {l.errors}")
        self._check_point_reads(timed, loaders)
        e2e = {
            "setup_s": _median(setups),
            "ops_per_s": _median(win["ops_per_s"]),
            "get_p50_us": _median(win["p50_us"]["get"]),
            "put_p50_us": _median(win["p50_us"]["put"]),
            "recovery_s": _median([r["recovery_s"] for r in restarts]),
            "node_rss_mib": state["rss_kib"] / 1024,
            "space_amp": state["space_amp"],
        }
        tails = {"setup_s_each": setups,
                 "recovery_s_each": [r["recovery_s"] for r in restarts],
                 "rejected_follower_reads": sum(l.rejects for l in loaders),
                 "errors": [e for l in loaders for e in l.errors]}
        for op, xs in lat.items():
            if xs:
                tails[f"{op}_n"] = len(xs)
                tails[f"{op}_p50_us"] = percentile(xs, 0.5) / 1000
                tails[f"{op}_p99_us"] = percentile(xs, 0.99) / 1000
        layers = None
        if self.trace:
            layers = self._layers(timed, restarts, lat, loaders, e2e)
        return {"attempted": attempted, "failed": failed, "e2e": e2e, "tails": tails,
                "layers": layers, "failures": self.failures}

    def _check_point_reads(self, timed: dict, loaders) -> None:
        """At most one log read per GET, and per record a RANGE looked up.

        A RANGE looks up to its limit in every partition before the merge
        trims the result, so that is its allowance.  The traced run checks
        GETs alone, from the spans.
        """
        reads = sum(e["counters"]["log_point_reads"] - b["counters"]["log_point_reads"]
                    for b, e in zip(timed["base"], timed["end"]))
        ranges = sum(len(l.lat["range"]) for l in loaders)
        gets = sum(len(l.lat["get"]) for l in loaders)
        allowed = gets + ranges * self.spec.partitions * RANGE_LIMIT
        self.check(reads <= allowed, f"{reads} log reads, at most {allowed} allowed")

    def _layers(self, timed, restarts, lat, loaders, e2e) -> dict:
        spans: dict[str, list[int]] = {}
        values: dict[str, list[float]] = {}
        edges: dict[str, int] = {}
        for dump in timed["end"]:
            _merge(spans, values, edges, dump["trace"])

        def count(name):
            return spans.get(name, [0, 0, 0])[0]

        def mean_us(name, own=False):
            n, total, self_ns = spans.get(name, [0, 0, 0])
            return (self_ns if own else total) / n / 1000 if n else 0.0

        def vmean(name, scale=1.0):
            n, total = values.get(name, [0, 0.0])
            return total / n * scale if n else 0.0

        def delta(key):
            return sum(e["counters"][key] - b["counters"][key]
                       for b, e in zip(timed["base"], timed["end"]))

        def cache_delta(key):
            return sum(pe[key] - pb[key] for b, e in zip(timed["base"], timed["end"])
                       for pb, pe in zip(b["cache"], e["cache"]))

        puts = len(lat["put"])
        writes = puts + len(lat["delete"])
        user_bytes = sum(l.user_bytes for l in loaders)
        gets = count("engine.cached_get") + count("engine.cold_get")
        get_total = spans.get("engine.cached_get", [0, 0, 0])[1] + \
            spans.get("engine.cold_get", [0, 0, 0])[1]
        engine_get_us = get_total / gets / 1000 if gets else 0.0
        encoded = values.get("wire.append_encode_records", [0, 0])[1]
        decoded = values.get("wire.append_decode_records", [0, 0])[1]
        hits, misses = cache_delta("hits"), cache_delta("misses")
        # leader minus follower 1 flushed LSN, and ops the leader still holds
        lag = [max(0, s[0][0]["flushed"] - s[1][0]["flushed"]) for s in timed["samples"] if len(s) > 1]
        held = [sum(r["records_held"] for r in s[0]) for s in timed["samples"]]

        pre = self.tracer.dump()["spans"]
        checkpoints = pre.get("recovery.checkpoint", [0, 0, 0])
        snap_writes = pre.get("art.snapshot_write", [0, 0, 0])

        rec_store, replay, loads, loaded, replayed, start = [], [], 0, 0, [], []
        for r in restarts:
            s = r["dump"]["trace"]["spans"]
            e = r["dump"]["trace"]["edges"]
            store_s = s.get("recovery.recover_store", [0, 0, 0])[1] / 1e9
            rec_store.append(store_s)
            start.append(r["recovery_s"] - store_s)
            replay.append(s.get("wal.replay_tail", [0, 0, 0])[1] / 1e9)
            loads += s.get("art.snapshot_load", [0, 0, 0])[1]
            loaded += e.get("art.snapshot_load>art.put", 0)
            replayed.append(r["dump"]["counters"]["records_replayed"])

        point_reads = edges.get("engine.get>wal.read_at", 0)
        self.check(point_reads <= gets, f"{point_reads} log reads in {gets} engine gets")
        return {
            "client.get_p99_us": percentile(lat["get"], 0.99) / 1000 if lat["get"] else 0.0,
            "client.put_p99_us": percentile(lat["put"], 0.99) / 1000 if lat["put"] else 0.0,
            "server.get_overhead_us": e2e["get_p50_us"] - engine_get_us,
            "server.put_overhead_us": e2e["put_p50_us"]
            - mean_us("engine.apply_put") - mean_us("wal.flush"),
            "wire.append_encode_us_per_record":
                spans.get("wire.append_encode", [0, 0, 0])[1] / encoded / 1000 if encoded else 0.0,
            "wire.append_decode_us_per_record":
                spans.get("wire.append_decode", [0, 0, 0])[1] / decoded / 1000 if decoded else 0.0,
            "wire.frames_per_put": count("wire.append_encode") / puts if puts else 0.0,
            "replication.queue_wait_us": vmean("replication.queue_wait_ns", 1e-3),
            "replication.exec_batch_us": mean_us("replication.exec_batch"),
            "replication.ops_per_batch": vmean("replication.batch_ops"),
            "replication.commit_wait_us": vmean("replication.commit_wait_ns", 1e-3),
            "replication.append_entries_us": mean_us("replication.append_entries"),
            "replication.records_per_append": vmean("replication.append_records"),
            "replication.nacks_per_1k_puts":
                values.get("replication.nacks", [0, 0])[0] * 1000 / puts if puts else 0.0,
            "replication.follower_lag_lsn": _mean(lag),
            "replication.leader_records_held": _mean(held),
            "engine.apply_put_us": mean_us("engine.apply_put", own=True),
            "engine.cached_get_us": mean_us("engine.cached_get", own=True),
            "engine.cold_get_us": mean_us("engine.cold_get", own=True),
            "engine.range_us": mean_us("engine.range", own=True),
            "art.put_us": mean_us("art.put"),
            "art.get_us": mean_us("art.get"),
            "art.remove_us": mean_us("art.remove"),
            "art.range_us": mean_us("art.range"),
            "art.snapshot_write_s":
                snap_writes[1] / checkpoints[0] / 1e9 if checkpoints[0] else 0.0,
            "art.snapshot_load_us_per_entry": loads / loaded / 1000 if loaded else 0.0,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.get_us": mean_us("cache.get"),
            "cache.admit_us": mean_us("cache.admit"),
            "wal.append_us": mean_us("wal.append"),
            "wal.flush_us": mean_us("wal.flush"),
            "wal.fsyncs_per_put": delta("fsyncs") / writes if writes else 0.0,
            "wal.read_at_us": mean_us("wal.read_at"),
            "wal.point_reads_per_get": point_reads / gets if gets else 0.0,
            "wal.bytes_written_per_user_byte":
                delta("append_bytes") / user_bytes if user_bytes else 0.0,
            "wal.decode_record_us": mean_us("wal.decode_record"),
            "wal.replay_tail_s": _median(replay),
            "recovery.recover_store_s": _median(rec_store),
            "recovery.records_replayed": _median(replayed),
            "recovery.checkpoint_s":
                checkpoints[1] / checkpoints[0] / 1e9 if checkpoints[0] else 0.0,
            "recovery.process_start_s": _median(start),
        }


@contextmanager
def _collector_paused():
    """Keep the benchmark's own collector out of a measured interval: its
    pauses would read as time spent by the node."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _merge(spans, values, edges, trace) -> None:
    for name, cell in trace["spans"].items():
        acc = spans.setdefault(name, [0, 0, 0])
        for i in range(3):
            acc[i] += cell[i]
    for name, cell in trace["values"].items():
        acc = values.setdefault(name, [0, 0.0])
        acc[0] += cell[0]
        acc[1] += cell[1]
    for name, n in trace["edges"].items():
        edges[name] = edges.get(name, 0) + n
