"""Two-region read cache: second-chance mechanics and hit-ratio behavior."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from logstore.cache import ENTRY_OVERHEAD, CacheConfig, FifoCache, LruCache, TwoStageCache

POLICIES = (TwoStageCache, LruCache, FifoCache)


def cache_for(n_entries, key_len=4, val_len=16, cooling=0.10, seed=0):
    per = key_len + val_len + ENTRY_OVERHEAD
    return TwoStageCache(CacheConfig(per * n_entries, cooling), seed=seed)


VAL = b"v" * 16


def assert_regions_consistent(cache, values):
    """Hot and cooling are disjoint, together hold every cached key, and
    `resident_bytes` is the sum of their entries' sizes; `values` maps each
    key to its latest admitted value."""
    hot, cooling = set(cache._hot), set(cache._cooling)
    assert not hot & cooling
    assert hot | cooling == {key for key in values if key in cache}
    assert cache.resident_bytes == sum(
        len(key) + len(values[key]) + ENTRY_OVERHEAD for key in hot | cooling)
    assert cache.resident_bytes <= cache.capacity_bytes


class TestStructure:
    def test_admit_and_get(self):
        cache = cache_for(10)
        cache.admit(b"aaaa", VAL, 1)
        assert cache.get(b"aaaa") == VAL
        assert cache.get(b"bbbb") is None
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_hot_hit_changes_no_structure(self):
        cache = cache_for(10)
        for i in range(5):
            cache.admit(b"k%03d" % i, VAL, i + 1)
        before = (list(cache._hot), list(cache._cooling), cache.resident_bytes)
        for _ in range(100):
            cache.get(b"k002")
        after = (list(cache._hot), list(cache._cooling), cache.resident_bytes)
        assert before == after  # only the hit counter moved

    def test_overflow_demotes_then_evicts_fifo(self):
        cache = cache_for(10, cooling=0.2, seed=42)
        keys = [b"k%03d" % i for i in range(40)]
        for i, key in enumerate(keys):
            cache.admit(key, VAL, i + 1)
        stats = cache.stats()
        assert stats["resident_bytes"] <= cache.capacity_bytes
        assert stats["cooling_count"] > 0
        assert stats["hot_count"] + stats["cooling_count"] == sum(key in cache for key in keys)
        assert cache.cooling_bytes <= cache.cooling_capacity + (4 + 16 + ENTRY_OVERHEAD)

    def test_cooling_hit_promotes_back_to_hot(self):
        cache = cache_for(10, cooling=0.3, seed=1)
        for i in range(12):  # force some demotions
            cache.admit(b"k%03d" % i, VAL, i + 1)
        cooling_keys = list(cache._cooling)
        assert cooling_keys, "expected demotions at overflow"
        victim = cooling_keys[0]
        before = cache.stats()
        assert cache.get(victim) == VAL
        after = cache.stats()
        assert (after["hot_count"], after["cooling_count"]) == (
            before["hot_count"] + 1, before["cooling_count"] - 1)
        assert victim not in cache._cooling and victim in cache

    def test_eviction_takes_cooling_head_first(self):
        cache = cache_for(10, cooling=0.3, seed=7)
        for i in range(10):
            cache.admit(b"k%03d" % i, VAL, i + 1)
        # fill past capacity and track cooling order: when the FIFO is
        # non-empty, the next eviction must take its head, never the tail
        for i in range(10, 30):
            order = list(cache._cooling)
            evicted = cache.admit(b"k%03d" % i, VAL, i + 1)
            for key in evicted:
                if order:
                    assert key == order.pop(0)
                assert key not in cache

    def test_refresh_with_newer_version(self):
        cache = cache_for(10)
        cache.admit(b"key1", b"old", 1)
        cache.admit(b"key1", b"new2", 2)
        assert cache.get(b"key1") == b"new2"
        assert cache.resident_bytes == 4 + 4 + ENTRY_OVERHEAD

    def test_oversized_value_rejected(self):
        cache = cache_for(2)
        huge = b"x" * (cache.capacity_bytes + 1)
        assert cache.admit(b"big1", huge, 1) == [b"big1"]
        assert b"big1" not in cache

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("demote", [False, True])
    def test_oversized_admit_drops_the_resident_value(self, policy, demote):
        cache = policy(CacheConfig(4 * (4 + 16 + ENTRY_OVERHEAD), 0.5), seed=1)
        cache.admit(b"key1", VAL, 1)
        for i in range(4 if demote else 0):  # pushes key1 to cooling, if the policy has one
            cache.admit(b"k%03d" % i, VAL, i + 2)
        assert cache.admit(b"key1", b"x" * cache.capacity_bytes, 9) == [b"key1"]
        assert b"key1" not in cache
        assert cache.get(b"key1") is None
        assert cache.resident_bytes == sum(
            4 + 16 + ENTRY_OVERHEAD for i in range(4) if b"k%03d" % i in cache)

    def test_invalidate(self):
        cache = cache_for(10)
        cache.admit(b"key1", VAL, 1)
        assert cache.invalidate(b"key1") is True
        assert cache.invalidate(b"key1") is False
        assert cache.get(b"key1") is None
        assert cache.resident_bytes == 0

    def test_cooling_region_capped_at_fraction(self):
        config = CacheConfig(100_000, cooling_fraction=0.10)
        cache = TwoStageCache(config, seed=3)
        assert cache.cooling_capacity == 10_000
        for i in range(5000):
            cache.admit(b"k%06d" % i, VAL, i + 1)
            assert cache.cooling_bytes <= cache.cooling_capacity + (6 + 16 + ENTRY_OVERHEAD)

    def test_bad_cooling_fraction_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, cooling_fraction=0.0)
        with pytest.raises(ValueError):
            CacheConfig(1000, cooling_fraction=1.0)

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                              st.binary(max_size=8)), max_size=300))
    @settings(max_examples=50)
    def test_capacity_never_exceeded_property(self, ops):
        cache = cache_for(8, seed=5)
        values = {}
        for lsn, (key, value) in enumerate(ops, 1):
            cache.admit(key, value, lsn)
            values[key] = value
            assert_regions_consistent(cache, values)

    def test_stale_hot_slots_are_dropped(self):
        cache = cache_for(1000, seed=4)
        for round_ in range(20):
            for i in range(100):
                cache.admit(b"k%03d" % i, VAL, round_)
            for i in range(95):
                cache.invalidate(b"k%03d" % i)
            # slots of invalidated keys never outnumber the live ones for long
            assert len(cache._hot_keys) <= 2 * len(cache._hot)
        values = {b"k%03d" % i: VAL for i in range(100)}
        for i in range(100, 2000):  # overflow: every draw finds a live entry
            key = b"k%04d" % i
            values[key] = VAL
            cache.admit(key, VAL, 21)
            assert_regions_consistent(cache, values)

    def test_pool_structures_fit_in_entry_overhead(self):
        """Beyond its keys and values, a pool short of eviction takes at most
        ENTRY_OVERHEAD bytes per entry: the hot dict's slot and a slot of the
        hot key list.  Each size is the one right after the hot dict doubles,
        where the dict is least full.  (Past 21,845 hot entries the dict's
        index slots widen to 4 bytes, and right after a doubling the pool
        then takes about 69 B per entry.)"""
        for n in (2731, 5462, 10923):
            keys = [b"%08d" % i for i in range(n)]
            values = [b"%0100d" % i for i in range(n)]
            capacity = n * (8 + 100 + ENTRY_OVERHEAD)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                cache = TwoStageCache(CacheConfig(capacity), seed=1)
                for key, value in zip(keys, values):
                    assert cache.admit(key, value, 1) == []
                used = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert cache.resident_bytes == capacity
            assert used / n <= ENTRY_OVERHEAD, f"{n} entries: {used / n:.1f} B each"


class TestBaselines:
    @pytest.mark.parametrize("cls", [LruCache, FifoCache])
    def test_baseline_contract(self, cls):
        cache = cls(CacheConfig(10 * (4 + 16 + ENTRY_OVERHEAD)))
        cache.admit(b"aaaa", VAL, 1)
        assert cache.get(b"aaaa") == VAL
        for i in range(30):
            cache.admit(b"k%03d" % i, VAL, i + 1)
        assert cache.resident_bytes <= cache.capacity_bytes

    def test_lru_keeps_recently_read_fifo_does_not(self):
        config = CacheConfig(4 * (4 + 16 + ENTRY_OVERHEAD))
        lru, fifo = LruCache(config), FifoCache(config)
        for cache in (lru, fifo):
            for i in range(4):
                cache.admit(b"k%03d" % i, VAL, i + 1)
            cache.get(b"k000")          # touch the oldest
            cache.admit(b"knew", VAL, 9)  # force one eviction
        assert b"k000" in lru            # LRU protected it
        assert b"k000" not in fifo       # FIFO evicted by insertion order


class TestModel:
    @pytest.mark.parametrize("policy", POLICIES)
    @given(st.lists(st.tuples(st.sampled_from(["admit", "get", "invalidate"]),
                              st.integers(0, 11), st.sampled_from([0, 1, 16, 700])),
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_get_returns_the_latest_admitted_value_or_a_miss(self, policy, ops):
        cache = policy(CacheConfig(8 * (4 + 16 + ENTRY_OVERHEAD), 0.25), seed=3)
        latest = {}
        for step, (op, k, size) in enumerate(ops):
            key = b"k%03d" % k
            if op == "admit":
                value = (b"%d:" % step).ljust(size, b"x")
                cache.admit(key, value, step)
                latest[key] = value
            elif op == "invalidate":
                cache.invalidate(key)
                latest.pop(key, None)
            else:
                got = cache.get(key)
                assert got is None or got == latest.get(key)
                assert (got is not None) == (key in cache)
            if policy is TwoStageCache:
                assert_regions_consistent(cache, latest)
            assert cache.resident_bytes <= cache.capacity_bytes


class TestHitRatio:
    def run_uniform(self, policy_cls, ratio, keys=2000, ops=60_000, seed=9):
        per = 8 + 16 + ENTRY_OVERHEAD
        cache = policy_cls(CacheConfig(int(keys * ratio) * per), seed=seed) \
            if policy_cls is TwoStageCache else \
            policy_cls(CacheConfig(int(keys * ratio) * per))
        rng = random.Random(seed)
        hits = reads = 0
        for i in range(ops):
            key = b"%08d" % rng.randrange(keys)
            got = cache.get(key)
            if i >= ops // 2:
                reads += 1
                hits += got is not None
            if got is None:
                cache.admit(key, VAL, 1)
        return hits / reads

    def test_uniform_hit_ratio_tracks_size_ratio(self):
        # with uniform access, any policy's hit ratio converges to the
        # fraction of the working set that fits
        for ratio in (0.2, 0.4):
            got = self.run_uniform(TwoStageCache, ratio)
            assert got == pytest.approx(ratio, abs=0.03)

    def test_twostage_beats_fifo_under_skew(self):
        per = 8 + 16 + ENTRY_OVERHEAD
        keys, ops = 2000, 60_000
        capacity = int(keys * 0.2) * per
        ratios = {}
        for cls in (TwoStageCache, FifoCache):
            cache = cls(CacheConfig(capacity), seed=2) if cls is TwoStageCache \
                else cls(CacheConfig(capacity))
            rng = random.Random(2)
            hits = reads = 0
            for i in range(ops):
                # 80/20 hotspot skew
                if rng.random() < 0.8:
                    key = b"%08d" % rng.randrange(keys // 5)
                else:
                    key = b"%08d" % rng.randrange(keys)
                got = cache.get(key)
                if i >= ops // 2:
                    reads += 1
                    hits += got is not None
                if got is None:
                    cache.admit(key, VAL, 1)
            ratios[cls.name] = hits / reads
        assert ratios["twostage"] >= ratios["fifo"] - 0.02
