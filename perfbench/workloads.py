"""The three workloads: seeded inputs, the model, the closed-loop connections.

Inputs come only from the seed.  Every value names its key and a version
number (`<key>:<seq>:` then seeded filler), so any answer can be checked
against the model of acknowledged writes kept here, apart from the program.
Each load connection writes only its own contiguous slice of the keys, so the
final state does not depend on how the two connections interleave.
"""

from __future__ import annotations

import bisect
import random
import struct
import threading
import zlib
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass(frozen=True)
class Spec:
    name: str
    nodes: int
    partitions: int
    keys: int
    value_size: int           # mean; see Values
    cache_bytes: int          # per partition
    zipf: bool                # zipfian (theta 0.99) or uniform key draws
    mix: tuple[int, int, int, int]  # percent PUT, GET, DELETE, RANGE
    history_ops: int          # per connection, between set-up and the restarts
    setup_reps: int = 3
    recovery_cycles: int = 7
    warmup_ops: int = 300     # per connection, after the cache fill


MIB = 1024 * 1024

WORKLOADS = {
    "hot-get": Spec("hot-get", nodes=1, partitions=2, keys=20_000, value_size=100,
                    cache_bytes=64 * MIB, zipf=True, mix=(5, 95, 0, 0),
                    history_ops=3000),
    "cold-mixed": Spec("cold-mixed", nodes=1, partitions=2, keys=30_000, value_size=200,
                       cache_bytes=1 * MIB, zipf=False, mix=(50, 35, 10, 5),
                       history_ops=8000),
    "replicated-rw": Spec("replicated-rw", nodes=3, partitions=1, keys=20_000,
                          value_size=100, cache_bytes=64 * MIB, zipf=False,
                          mix=(50, 50, 0, 0), history_ops=5000),
}

RANGE_SPAN = 16     # a short RANGE covers this many key ids
RANGE_LIMIT = 8
VERIFY_CHUNK = 4096
REJECT_RETRY_S = 5.0
ZIPF_THETA = 0.99


def tiny(spec: Spec) -> Spec:
    """The same workload at a size that runs in seconds (smoke tests)."""
    return Spec(spec.name, spec.nodes, spec.partitions, keys=600,
                value_size=spec.value_size,
                cache_bytes=min(spec.cache_bytes, 16 * 1024),
                zipf=spec.zipf, mix=spec.mix, history_ops=100, setup_reps=1,
                recovery_cycles=1, warmup_ops=20)


def enc(k: int) -> bytes:
    return struct.pack(">Q", k)


def dec(key: bytes) -> int:
    return struct.unpack(">Q", key)[0]


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    idx = min(len(sorted_values) - 1, max(0, int(round(q * len(sorted_values))) - 1))
    return sorted_values[idx]


class Values:
    """Values of `size` bytes on average: each version gets its own length,
    drawn from the seed between half and one and a half times `size`."""

    def __init__(self, size: int, seed: int):
        self.size = size
        self.salt = seed
        self.fill = random.Random(seed ^ 0xF111).randbytes(size + size // 2)

    def make(self, k: int, seq: int) -> bytes:
        head = b"%d:%d:" % (k, seq)
        length = self.size // 2 + zlib.crc32(b"%d:%d:%d" % (self.salt, k, seq)) % (self.size + 1)
        return head + self.fill[len(head):length]

    def parse(self, value: bytes) -> tuple[int, int] | None:
        """(key id, seq) when `value` is exactly a value this run writes."""
        parts = value.split(b":", 2)
        if len(parts) != 3 or not parts[0].isdigit() or not parts[1].isdigit():
            return None
        k, seq = int(parts[0]), int(parts[1])
        return (k, seq) if self.make(k, seq) == value else None


class Model:
    """Latest acknowledged version of every key: seq >= 0, or -1 if absent."""

    def __init__(self, keys: int, values: Values):
        self.seqs = [0] * keys
        self.values = values
        # replicated-rw: per key, (lsn, seq) of every acknowledged version,
        # and the seq of the PUT the writer has sent but not yet seen acked
        self.history: list[list[tuple[int, int]]] = []
        self.inflight: dict[int, int] = {}

    def expected(self, k: int) -> bytes | None:
        seq = self.seqs[k]
        return None if seq < 0 else self.values.make(k, seq)

    def live_bytes(self) -> int:
        return sum(8 + len(self.values.make(k, s)) for k, s in enumerate(self.seqs) if s >= 0)

    def expected_range(self, a: int, b: int, limit: int | None) -> list[tuple[bytes, bytes]]:
        out = []
        for k in range(a, b):
            if self.seqs[k] >= 0:
                out.append((enc(k), self.values.make(k, self.seqs[k])))
                if limit is not None and len(out) >= limit:
                    break
        return out


class Loader:
    """One closed-loop client connection over the key slice [lo, hi)."""

    def __init__(self, spec: Spec, model: Model, client, lo: int, hi: int,
                 rng: random.Random):
        self.spec = spec
        self.model = model
        self.values = model.values
        self.client = client
        self.lo, self.hi = lo, hi
        self.rng = rng
        self.seq = 0
        # per op type: latency and completion time (ns) of every completed op
        self.lat: dict[str, list[int]] = {"get": [], "put": [], "delete": [], "range": []}
        self.ends: dict[str, list[int]] = {op: [] for op in self.lat}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.broken = False
        self.all_writes = 0       # since preload; never reset
        self.user_bytes = 0       # key + value bytes written since reset_stats
        self.rejects = 0
        self.last_acked_lsn = 0
        self.last_key = lo
        self._cdf = None
        if spec.zipf:
            n = hi - lo
            weights = [1.0 / (i + 1) ** ZIPF_THETA for i in range(n)]
            total = sum(weights)
            acc, cdf = 0.0, []
            for w in weights:
                acc += w / total
                cdf.append(acc)
            self._cdf = cdf
            # hot ranks land on scattered keys, not on the first ids
            self._perm = list(range(lo, hi))
            random.Random(rng.random()).shuffle(self._perm)

    def reset_stats(self) -> None:
        for op in self.lat:
            self.lat[op].clear()
            self.ends[op].clear()
        self.attempted = self.failed = self.user_bytes = self.rejects = 0

    def pick(self) -> int:
        if self._cdf is not None:
            rank = min(bisect.bisect_left(self._cdf, self.rng.random()), len(self._cdf) - 1)
            return self._perm[rank]
        return self.rng.randrange(self.lo, self.hi)

    def _done(self, op: str, t0: int) -> None:
        t1 = perf_counter_ns()
        self.lat[op].append(t1 - t0)
        self.ends[op].append(t1)

    def _wrong(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def _stop(self, exc: Exception) -> None:
        self.failed += 1
        self.broken = True
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    # -- single node: mixed PUT / GET / DELETE / RANGE -----------------------

    def mixed(self, stop_ns: int | None = None, ops: int | None = None) -> None:
        put, get, delete, _range = self.spec.mix
        t_get, t_del = put + get, put + get + delete
        client, model, rng = self.client, self.model, self.rng
        done = 0
        while not self.broken:
            if ops is not None and done >= ops:
                break
            if stop_ns is not None and perf_counter_ns() >= stop_ns:
                break
            done += 1
            self.attempted += 1
            roll = rng.randrange(100)
            k = self.pick()
            key = enc(k)
            try:
                if roll < put:
                    self.seq += 1
                    value = self.values.make(k, self.seq)
                    t0 = perf_counter_ns()
                    client.put(key, value)
                    self._done("put", t0)
                    model.seqs[k] = self.seq
                    self.all_writes += 1
                    self.user_bytes += len(key) + len(value)
                    self.last_key = k
                elif roll < t_get:
                    t0 = perf_counter_ns()
                    got = client.get(key)
                    self._done("get", t0)
                    if got != model.expected(k):
                        self._wrong(f"GET {k}: {got[:24] if got else got!r}")
                elif roll < t_del:
                    t0 = perf_counter_ns()
                    existed = client.delete(key)
                    self._done("delete", t0)
                    if existed != (model.seqs[k] >= 0):
                        self._wrong(f"DELETE {k}: existed={existed}")
                    model.seqs[k] = -1
                    self.all_writes += 1
                    self.user_bytes += len(key)
                    self.last_key = k
                else:
                    b = min(self.hi, k + RANGE_SPAN)
                    t0 = perf_counter_ns()
                    got = client.range(key, enc(b), RANGE_LIMIT)
                    self._done("range", t0)
                    if got != model.expected_range(k, b, RANGE_LIMIT):
                        self._wrong(f"RANGE {k}..{b}: {len(got)} entries")
            except Exception as exc:  # noqa: BLE001 - any failure ends this connection
                self._stop(exc)

    # -- replicated: quorum PUTs on the leader --------------------------------

    def writer(self, stop_ns: int | None = None, ops: int | None = None) -> None:
        client, model = self.client, self.model
        inflight = model.inflight
        done = 0
        while not self.broken:
            if ops is not None and done >= ops:
                break
            if stop_ns is not None and perf_counter_ns() >= stop_ns:
                break
            done += 1
            self.attempted += 1
            k = self.pick()
            self.seq += 1
            value = self.values.make(k, self.seq)
            inflight[k] = self.seq  # a follower may show it before the ack
            try:
                t0 = perf_counter_ns()
                lsn = client.put(enc(k), value)
                self._done("put", t0)
            except Exception as exc:  # noqa: BLE001
                self._stop(exc)
                break
            model.history[k].append((lsn, self.seq))
            model.seqs[k] = self.seq
            self.last_acked_lsn = lsn
            self.all_writes += 1
            self.user_bytes += 8 + len(value)
            self.last_key = k

    # -- replicated: follower GETs at the writer's latest acknowledged LSN ----

    def reader(self, writer: "Loader", stop_ns: int | None = None,
               ops: int | None = None) -> None:
        from logstore.errors import ReadRejectedError

        client, model = self.client, self.model
        done = 0
        while not self.broken:
            if ops is not None and done >= ops:
                break
            if stop_ns is not None and perf_counter_ns() >= stop_ns:
                break
            done += 1
            self.attempted += 1
            k = self.pick()
            view = writer.last_acked_lsn
            try:
                t0 = perf_counter_ns()
                give_up = t0 + int(REJECT_RETRY_S * 1e9)
                while True:
                    try:
                        got = client.get(enc(k), view_lsn=view)
                        break
                    except ReadRejectedError:
                        # this follower is not yet in the quorum that acked
                        # `view`; the protocol's answer is to ask again
                        self.rejects += 1
                        if perf_counter_ns() > give_up:
                            raise
                self._done("get", t0)
            except Exception as exc:  # noqa: BLE001
                self._stop(exc)
                break
            self._check_follower_read(k, view, got)

    def _check_follower_read(self, k: int, view: int, got: bytes | None) -> None:
        parsed = self.values.parse(got) if got is not None else None
        if parsed is None or parsed[0] != k:
            self._wrong(f"follower GET {k}: {got[:24] if got else got!r}")
            return
        seq = parsed[1]
        hist = self.model.history[k]
        # newest version acknowledged at or below the read view
        need = 0
        for lsn, s in reversed(hist):
            if lsn <= view:
                need = s
                break
        known = seq == 0 or seq == self.model.inflight.get(k) or any(s == seq for _, s in hist)
        if seq < need or not known:
            self._wrong(f"follower GET {k} at view {view}: seq {seq}, need >= {need}")


def run_threads(targets) -> None:
    threads = [threading.Thread(target=fn, daemon=True) for fn in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
