"""Span tracing around calls into logstore's modules, installed from outside.

`Tracer.wrap` replaces a function or method with a wrapper that times the
call and records it as a span whose parent is the innermost span open on the
same thread.  Spans are folded into per-thread aggregates as they end (count,
inclusive time, self time = inclusive time minus the time of child spans, and
parent->child call counts), so memory stays flat however long a run is and
the hot path takes no lock.  Nothing under src/ is edited: the wrappers are
set on the classes and module attributes before the node is built.
"""

from __future__ import annotations

import threading
from itertools import islice
from time import perf_counter_ns


class _ThreadState:
    __slots__ = ("stack", "spans", "edges", "values")

    def __init__(self):
        self.stack: list[list] = []
        self.spans: dict[str, list[int]] = {}   # name -> [count, total_ns, self_ns]
        self.edges: dict[tuple[str, str], int] = {}
        self.values: dict[str, list[float]] = {}  # name -> [count, sum]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        # per-op stage stamps, keyed by (replica id, lsn); each key is written
        # and read under the partition lock the server already holds
        self.dispatched: dict[tuple[int, int], int] = {}
        self.flushed: dict[tuple[int, int], int] = {}

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    def add(self, name: str, value: float) -> None:
        """Record one sample of a value that is not a span (a size, a wait)."""
        acc = self._state().values
        cell = acc.get(name)
        if cell is None:
            acc[name] = [1, value]
        else:
            cell[0] += 1
            cell[1] += value

    def wrap(self, owner, attr: str, name: str, pre=None, post=None,
             static: bool = False) -> None:
        """Time every call of `owner.attr` as span `name`.

        `pre(args)` runs before the call and its return value is handed to
        `post(args, result, token, frame)`, which may return another span name
        (to classify the call) or None (to drop it).  A frame is
        [name, child_ns, child_names].
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            token = pre(args) if pre is not None else None
            frame = [name, 0, None]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
            label = post(args, result, token, frame) if post is not None else name
            if stack:
                parent = stack[-1]
                parent[1] += dur
                if parent[2] is None:
                    parent[2] = {name}
                else:
                    parent[2].add(name)
                edge = (parent[0], name)
                st.edges[edge] = st.edges.get(edge, 0) + 1
            if label is not None:
                cell = st.spans.get(label)
                if cell is None:
                    st.spans[label] = [1, dur, dur - frame[1]]
                else:
                    cell[0] += 1
                    cell[1] += dur
                    cell[2] += dur - frame[1]
            return result

        wrapper.__wrapped__ = fn
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def reset(self) -> None:
        with self._states_lock:
            states = list(self._states)
        for st in states:
            st.spans = {}
            st.edges = {}
            st.values = {}

    def dump(self) -> dict:
        """Merge every thread's aggregates into plain JSON-able dicts."""
        spans: dict[str, list[int]] = {}
        edges: dict[str, int] = {}
        values: dict[str, list[float]] = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for name, (n, total, own) in dict(st.spans).items():
                cell = spans.setdefault(name, [0, 0, 0])
                cell[0] += n
                cell[1] += total
                cell[2] += own
            for (parent, child), n in dict(st.edges).items():
                key = f"{parent}>{child}"
                edges[key] = edges.get(key, 0) + n
            for name, (n, total) in dict(st.values).items():
                cell = values.setdefault(name, [0, 0.0])
                cell[0] += n
                cell[1] += total
        return {"spans": spans, "edges": edges, "values": values}


def install_node_spans(tracer: Tracer) -> None:
    """Wrap the public calls of every layer a node process runs."""
    from logstore import art, cache, engine, replication, server, wal, wire

    t = tracer
    # engine: a get that reached the log is cold, any other is cached
    t.wrap(engine.Partition, "apply_put", "engine.apply_put")
    t.wrap(engine.Partition, "apply_delete", "engine.apply_delete")
    t.wrap(engine.Partition, "get", "engine.get",
           post=lambda a, r, tok, f: "engine.cold_get"
           if f[2] and "wal.read_at" in f[2] else "engine.cached_get")
    t.wrap(engine.Store, "range", "engine.range")

    tree = art.AdaptiveRadixTree
    for attr in ("put", "get", "remove", "range", "snapshot_write"):
        t.wrap(tree, attr, f"art.{attr}")
    t.wrap(tree, "snapshot_load", "art.snapshot_load", static=True)

    t.wrap(cache.TwoStageCache, "get", "cache.get")
    t.wrap(cache.TwoStageCache, "admit", "cache.admit")

    store = wal.SegmentStore
    t.wrap(store, "append", "wal.append")
    # a flush with nothing appended since the last one returns at once;
    # only the ones that synced count as wal.flush
    t.wrap(store, "flush", "wal.flush",
           pre=lambda a: a[0].counters.fsyncs,
           post=lambda a, r, before, f: "wal.flush"
           if a[0].counters.fsyncs != before else None)
    t.wrap(store, "read_at", "wal.read_at")
    t.wrap(store, "replay_tail", "wal.replay_tail")
    # wal and wire each hold their own binding of decode_record
    t.wrap(wal, "decode_record", "wal.decode_record")
    t.wrap(wire, "decode_record", "wal.decode_record")

    def count_records(label):
        def post(args, result, token, frame):
            msg = result if label == "wire.append_decode" else args[0]
            t.add(label + "_records", len(msg.records))
            return label
        return post

    t.wrap(wire.AppendEntries, "encode", "wire.append_encode",
           post=count_records("wire.append_encode"))
    t.wrap(wire.AppendEntries, "decode", "wire.append_decode",
           post=count_records("wire.append_decode"), static=True)

    _install_replication(t, replication.PartitionReplica)
    # server.py binds recover_store by name at import time
    t.wrap(server, "recover_store", "recovery.recover_store")


def _install_replication(t: Tracer, replica_cls) -> None:
    def after_dispatch(args, lsn, token, frame):
        t.dispatched[(id(args[0]), lsn)] = perf_counter_ns()
        return "replication.dispatch"

    def before_exec(args):
        replica = args[0]
        limit = args[1] if len(args) > 1 and args[1] is not None else replica.max_batch
        now = perf_counter_ns()
        for op in islice(replica.pending_exec, limit):
            start = t.dispatched.pop((id(replica), op.lsn), None)
            if start is not None:
                t.add("replication.queue_wait_ns", now - start)

    def after_exec(args, replies, token, frame):
        if not replies:
            return None
        now = perf_counter_ns()
        rid = id(args[0])
        for obj in replies:
            t.flushed[(rid, obj.lsn)] = now
        t.add("replication.batch_ops", len(replies))
        return "replication.exec_batch"

    def after_ready(args, replies, token, frame):
        now = perf_counter_ns()
        rid = id(args[0])
        for obj in replies:
            start = t.flushed.pop((rid, obj.lsn), None)
            if start is not None:
                t.add("replication.commit_wait_ns", now - start)
        return "replication.ready_replies"

    def after_append(args, result, token, frame):
        records = args[3]
        if result[0] == "nack":
            t.add("replication.nacks", 1)
        if not records:
            return "replication.heartbeat"
        t.add("replication.append_records", len(records))
        return "replication.append_entries"

    t.wrap(replica_cls, "dispatch", "replication.dispatch", post=after_dispatch)
    t.wrap(replica_cls, "exec_batch", "replication.exec_batch",
           pre=before_exec, post=after_exec)
    t.wrap(replica_cls, "ready_replies", "replication.ready_replies", post=after_ready)
    t.wrap(replica_cls, "handle_append_entries", "replication.append_entries",
           post=after_append)


def install_preload_spans(tracer: Tracer) -> None:
    """Spans for the set-up that runs in the benchmark process itself."""
    from logstore import art, engine

    tracer.wrap(engine.Store, "checkpoint", "recovery.checkpoint")
    tracer.wrap(art.AdaptiveRadixTree, "snapshot_write", "art.snapshot_write")
