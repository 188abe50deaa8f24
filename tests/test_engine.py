"""Partitioned store: routing, read/write paths, IO accounting, compaction."""

import random
import threading
import zlib

import pytest

from logstore.engine import BATCH_SCAN_FRACTION, Partition, Store, route
from logstore.errors import LogStoreError
from logstore.workload import chi_square_uniform


class TestRouting:
    def test_route_is_crc_mod(self):
        for key in (b"a", b"hello", b"\x00\xff"):
            assert route(key, 7) == zlib.crc32(key) % 7

    def test_route_stable_and_in_range(self):
        for p in (1, 2, 16):
            for i in range(100):
                pid = route(b"key%d" % i, p)
                assert 0 <= pid < p
                assert pid == route(b"key%d" % i, p)

    def test_route_spreads_uniformly(self):
        counts = [0] * 8
        for i in range(80_000):
            counts[route(b"user%07d" % i, 8)] += 1
        # chi-square, 7 dof, p=0.001 critical value 24.32
        assert chi_square_uniform(counts) < 24.32


class TestReadWritePath:
    def test_put_get_delete(self, tmp_path):
        p = Partition(0, tmp_path)
        p.apply_put(b"k", b"v1")
        assert p.get(b"k") == b"v1"
        p.apply_put(b"k", b"v2")
        assert p.get(b"k") == b"v2"
        _, existed = p.apply_delete(b"k")
        assert existed and p.get(b"k") is None
        p.close()

    def test_cold_get_does_exactly_one_log_read(self, tmp_path):
        p = Partition(0, tmp_path, cache_bytes=10 * (64 + 10 + 100))
        for i in range(1000):
            p.apply_put(b"k%04d" % i, b"v" * 100)
        p.flush()
        rng = random.Random(5)
        for _ in range(500):
            key = b"k%04d" % rng.randrange(1000)
            before_points = p.counters.log_point_reads
            before_scans = p.counters.seq_scans
            hits = p.cache.hits
            assert p.get(key) == b"v" * 100
            reads = p.counters.log_point_reads - before_points
            if p.cache.hits > hits:
                assert reads == 0       # cache hit: no IO at all
            else:
                assert reads == 1       # cache miss: exactly one positioned read
            assert p.counters.seq_scans == before_scans
        p.close()

    def test_missing_key_does_no_io(self, tmp_path):
        p = Partition(0, tmp_path)
        p.apply_put(b"exists", b"v")
        before = p.counters.log_point_reads
        assert p.get(b"nope") is None
        assert p.counters.log_point_reads == before
        p.close()

    def test_write_path_never_admits_to_cache(self, tmp_path):
        p = Partition(0, tmp_path)
        p.apply_put(b"cold", b"v1")
        assert b"cold" not in p.cache
        p.get(b"cold")                       # read admits
        assert b"cold" in p.cache
        p.apply_put(b"cold", b"v2")          # write refreshes in place
        assert p.cache.get(b"cold")[0] == b"v2"
        p.close()

    def test_delete_invalidates_cache(self, tmp_path):
        p = Partition(0, tmp_path)
        p.apply_put(b"k", b"v")
        p.get(b"k")
        p.apply_delete(b"k")
        assert b"k" not in p.cache
        assert p.get(b"k") is None
        p.close()

    def test_reopen_reads_back_and_continues_lsns(self, tmp_path):
        store = Store(tmp_path)
        for i in range(5):
            store.put(b"k%d" % i, b"v%d" % i)
        store.close()
        store = Store(tmp_path)
        for i in range(5):
            assert store.get(b"k%d" % i) == b"v%d" % i
        assert store.put(b"k5", b"v5") == (0, 6)
        lsns = [record.lsn for record, _ in store.partitions[0].store.scan_all()]
        assert sorted(lsns) == [1, 2, 3, 4, 5, 6]  # no LSN written twice
        store.close()

    def test_range_merges_across_partitions(self, tmp_path):
        store = Store(tmp_path, partitions=4)
        for i in range(100):
            store.put(b"key%03d" % i, b"v%d" % i)
        got = store.range(b"key010", b"key020")
        assert got == [(b"key%03d" % i, b"v%d" % i) for i in range(10, 20)]
        assert store.range(b"key000", b"key100", limit=7) == \
            [(b"key%03d" % i, b"v%d" % i) for i in range(7)]
        store.close()

    def test_range_reads_only_the_values_it_returns(self, tmp_path):
        store = Store(tmp_path, partitions=2)
        for i in range(40):
            store.put(b"key%03d" % i, b"v%d" % i)
        assert {len(p.index.range(b"key000", b"key040")) for p in store.partitions} != {0}
        store.get(b"key002")  # the only cached value in the range
        before = store.counters.log_point_reads
        got = store.range(b"key000", b"key040", limit=6)
        assert got == [(b"key%03d" % i, b"v%d" % i) for i in range(6)]
        assert store.counters.log_point_reads - before == 5
        store.close()

    def test_store_batch_get_preserves_request_order(self, tmp_path):
        store = Store(tmp_path, partitions=4)
        for i in range(50):
            store.put(b"key%03d" % i, b"v%d" % i)
        keys = [b"key%03d" % i for i in (40, 3, 3, 99, 17)]
        got = store.batch_get(keys)
        assert [k for k, _ in got] == keys
        assert got[0][1] == b"v40" and got[2][1] == b"v3" and got[3][1] is None
        store.close()


class TestBatchGetStrategy:
    def fill(self, tmp_path, live=1000):
        p = Partition(0, tmp_path, cache_bytes=2048)
        for i in range(live):
            p.apply_put(b"k%05d" % i, b"v" * 64)
        return p

    def test_small_batch_uses_point_reads(self, tmp_path):
        p = self.fill(tmp_path)
        size = int(1000 * BATCH_SCAN_FRACTION) - 5
        before = p.counters.seq_scans
        p.batch_get([b"k%05d" % i for i in range(size)])
        assert p.counters.seq_scans == before
        p.close()

    def test_large_batch_switches_to_scan(self, tmp_path):
        p = self.fill(tmp_path)
        size = int(1000 * BATCH_SCAN_FRACTION) + 5
        before_points = p.counters.log_point_reads
        p.batch_get([b"k%05d" % i for i in range(size)])
        assert p.counters.seq_scans == 1
        assert p.counters.log_point_reads == before_points
        p.close()

    def test_both_strategies_agree(self, tmp_path):
        p = self.fill(tmp_path, live=300)
        p.apply_delete(b"k00010")
        keys = [b"k%05d" % i for i in range(0, 300, 3)] + [b"k99999"]
        via_scan = p._batch_get_scan(keys)
        via_points = [(k, p.get(k)) for k in keys]
        assert via_scan == via_points
        p.close()


class TestCompaction:
    def test_compact_preserves_reads_and_shrinks_log(self, tmp_path):
        p = Partition(0, tmp_path, segment_bytes=4096)
        rng = random.Random(1)
        oracle = {}
        for i in range(2000):
            key = b"k%03d" % rng.randrange(300)
            if rng.random() < 0.85:
                p.apply_put(key, b"val%06d" % i)
                oracle[key] = b"val%06d" % i
            else:
                p.apply_delete(key)
                oracle.pop(key, None)
        assert p.compact() is True
        assert len(p.store.sorted_ids()) == 1
        for key, value in oracle.items():
            assert p.get(key) == value
        assert p.index.size == len(oracle)
        p.close()

    def test_compact_is_repeatable(self, tmp_path):
        p = Partition(0, tmp_path, segment_bytes=2048)
        for i in range(500):
            p.apply_put(b"k%02d" % (i % 50), b"v%d" % i)
        p.compact()
        for i in range(500, 1000):
            p.apply_put(b"k%02d" % (i % 50), b"v%d" % i)
        p.compact()
        assert len(p.store.sorted_ids()) == 1
        assert p.get(b"k07") == b"v957"
        p.close()

    def test_maybe_compact_threshold(self, tmp_path):
        p = Partition(0, tmp_path, segment_bytes=1024)
        assert p.maybe_compact() is False  # nothing sealed yet
        for i in range(200):
            p.apply_put(b"k%03d" % i, b"v" * 32)
        assert p.maybe_compact() is True   # sealed bytes, no sorted bytes yet
        p.close()

    def test_compacted_partition_still_accepts_writes(self, tmp_path):
        p = Partition(0, tmp_path, segment_bytes=1024)
        for i in range(100):
            p.apply_put(b"k%03d" % i, b"v" * 32)
        p.compact()
        lsn = p.apply_put(b"after", b"compaction")
        assert lsn == 101
        assert p.get(b"after") == b"compaction"
        p.close()


class TestOwnership:
    def test_owner_thread_enforced_when_enabled(self, tmp_path):
        p = Partition(0, tmp_path, check_owner=True)
        p.adopt_owner()
        p.apply_put(b"k", b"v")
        errors = []

        def trespass():
            try:
                p.apply_put(b"x", b"y")
            except LogStoreError as exc:
                errors.append(exc)

        t = threading.Thread(target=trespass)
        t.start()
        t.join()
        assert len(errors) == 1
        p.close()
