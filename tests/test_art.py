"""Adaptive radix tree index: ordering, adaptivity, versioning, snapshots."""

import io
import random
import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from logstore.art import AdaptiveRadixTree
from logstore.errors import SnapshotCorruptError
from logstore.wal import LogPosition


def pos(i):
    return LogPosition(i // 1000, i % 1000)


class TestDictOracle:
    def test_random_ops_match_dict(self):
        rng = random.Random(11)
        tree = AdaptiveRadixTree()
        oracle = {}
        lsn = 0
        for _ in range(20_000):
            key = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 12)))
            lsn += 1
            if rng.random() < 0.8:
                tree.put(key, pos(lsn), lsn)
                oracle[key] = lsn
            else:
                removed = tree.remove(key)
                if key in oracle:
                    assert removed is not None and removed.key == key
                    del oracle[key]
                else:
                    assert removed is None
        assert tree.size == len(oracle)
        for key, version in oracle.items():
            got = tree.get(key)
            assert got is not None and got.version_lsn == version
        assert [e.key for e in tree.items()] == sorted(oracle)

    def test_put_remove_mix_ends_in_empty_canonical_tree(self):
        """Prefix-heavy keys over a 3-byte alphabet: after every removal burst
        the tree has the shape inserting the survivors would give, and
        removing everything leaves no root."""
        rng = random.Random(29)
        tree = AdaptiveRadixTree()
        oracle = {}
        for lsn in range(1, 6001):
            key = bytes(rng.choice(b"abc") for _ in range(rng.randrange(1, 7)))
            if rng.random() < 0.6:
                tree.put(key, pos(lsn), lsn)
                oracle[key] = lsn
            else:
                removed = tree.remove(key)
                assert (removed is not None) == (oracle.pop(key, None) is not None)
            if lsn % 1000 == 0:
                rebuilt = AdaptiveRadixTree()
                for k, version in oracle.items():
                    rebuilt.put(k, pos(version), version)
                assert tree.node_kinds() == rebuilt.node_kinds()
                assert list(tree.items()) == list(rebuilt.items())
        keys = list(oracle)
        rng.shuffle(keys)
        for key in keys:
            assert tree.remove(key).version_lsn == oracle.pop(key)
            assert tree.get(key) is None
        assert tree.root is None and tree.size == 0

    def test_remove_below_deeper_nesting_than_the_recursion_limit(self):
        tree = AdaptiveRadixTree()
        keys = [b"a" * i for i in range(1, 1501)]
        for lsn, key in enumerate(keys, 1):
            tree.put(key, pos(lsn), lsn)
        assert tree.remove(keys[-1]).version_lsn == 1500
        assert tree.get(keys[-1]) is None and tree.get(keys[-2]).version_lsn == 1499
        assert tree.size == 1499
        tree.put(keys[-1], pos(1501), 1501)
        assert tree.get(keys[-1]).version_lsn == 1501

    @given(st.dictionaries(st.binary(min_size=1, max_size=8),
                           st.integers(min_value=1, max_value=10**6),
                           max_size=200))
    @settings(max_examples=100)
    def test_insert_lookup_order_property(self, mapping):
        tree = AdaptiveRadixTree()
        for key, lsn in mapping.items():
            tree.put(key, pos(lsn), lsn)
        for key, lsn in mapping.items():
            assert tree.get(key).version_lsn == lsn
        assert [e.key for e in tree.items()] == sorted(mapping)


class TestAdaptivity:
    def build(self, fanout):
        tree = AdaptiveRadixTree()
        for b in range(fanout):
            tree.put(b"x" + bytes([b]), pos(b + 1), b + 1)
        return tree

    @pytest.mark.parametrize("fanout,kind", [(2, 4), (4, 4), (5, 16), (16, 16),
                                             (17, 48), (48, 48), (49, 256), (256, 256)])
    def test_root_grows_to_smallest_sufficient_kind(self, fanout, kind):
        assert self.build(fanout).root_kind() == kind

    @pytest.mark.parametrize("remaining,kind", [(4, 4), (16, 16), (48, 48)])
    def test_root_shrinks_on_removal(self, remaining, kind):
        tree = self.build(256)
        for b in range(256 - remaining):
            tree.remove(b"x" + bytes([b]))
        assert tree.root_kind() == kind

    def test_single_child_collapses_into_prefix(self):
        tree = AdaptiveRadixTree()
        tree.put(b"abcdef", pos(1), 1)
        tree.put(b"abcxyz", pos(2), 2)
        tree.remove(b"abcxyz")
        # back to a single leaf, no inner node left
        assert tree.root_kind() is None
        assert tree.get(b"abcdef") is not None

    def test_path_compression_splits_lazily(self):
        tree = AdaptiveRadixTree()
        tree.put(b"aaaa0000", pos(1), 1)
        tree.put(b"aaaa1111", pos(2), 2)
        assert tree.node_kinds() == {4: 1}  # one node holding prefix "aaaa"
        tree.put(b"aabb0000", pos(3), 3)
        assert tree.node_kinds() == {4: 2}  # prefix split at "aa"

    def test_layout_changes_only_across_48_and_49_children(self):
        def check(tree, n):
            assert tree.root_kind() == min(k for k in (4, 16, 48, 256) if k >= n)
            for b in range(50):
                entry = tree.get(b"x" + bytes([b]))
                assert (entry is not None) == (b < n)
                assert entry is None or entry.version_lsn == b + 1

        tree = self.build(2)
        root = tree.root
        for n in range(3, 49):
            tree.put(b"x" + bytes([n - 1]), pos(n), n)
            assert tree.root is root  # one list node from 2 children to 48
            check(tree, n)
        tree.put(b"x" + bytes([48]), pos(49), 49)
        grown = tree.root
        assert grown is not root and type(grown).__name__ == "_Node256"
        check(tree, 49)
        tree.remove(b"x" + bytes([48]))
        assert tree.root is not grown and type(tree.root) is type(root)
        check(tree, 48)
        shrunk = tree.root
        for n in range(47, 1, -1):
            tree.remove(b"x" + bytes([n]))
            assert tree.root is shrunk
            check(tree, n)


class TestPrefixKeys:
    def test_key_that_is_prefix_of_another(self):
        tree = AdaptiveRadixTree()
        tree.put(b"app", pos(1), 1)
        tree.put(b"apple", pos(2), 2)
        tree.put(b"applepie", pos(3), 3)
        assert tree.get(b"app").version_lsn == 1
        assert tree.get(b"apple").version_lsn == 2
        assert tree.get(b"appl") is None
        assert [e.key for e in tree.items()] == [b"app", b"apple", b"applepie"]
        assert tree.remove(b"apple").version_lsn == 2
        assert tree.get(b"apple") is None
        assert tree.get(b"applepie").version_lsn == 3


class TestVersioning:
    def test_put_replaces_only_if_strictly_newer(self):
        tree = AdaptiveRadixTree()
        tree.put(b"k", pos(5), 5)
        tree.put(b"k", pos(3), 3)   # stale: replayed old record
        assert tree.get(b"k").version_lsn == 5
        tree.put(b"k", pos(5), 5)   # equal: idempotent re-apply
        assert tree.get(b"k").position == pos(5)
        tree.put(b"k", pos(9), 9)
        assert tree.get(b"k").version_lsn == 9

    def test_put_returns_displaced_entry(self):
        tree = AdaptiveRadixTree()
        assert tree.put(b"k", pos(1), 1) is None
        displaced = tree.put(b"k", pos(2), 2)
        assert displaced.version_lsn == 1 and displaced.position == pos(1)

    def test_reposition_requires_exact_version(self):
        tree = AdaptiveRadixTree()
        tree.put(b"k", pos(7), 7)
        assert tree.reposition(b"k", pos(1), 6) is False   # version moved on
        assert tree.get(b"k").position == pos(7)
        assert tree.reposition(b"k", pos(1), 7) is True
        assert tree.get(b"k").position == pos(1)
        assert tree.get(b"k").version_lsn == 7  # version itself unchanged


class TestRange:
    def test_range_is_half_open_and_ordered(self):
        tree = AdaptiveRadixTree()
        keys = [b"k%03d" % i for i in range(100)]
        for i, key in enumerate(keys):
            tree.put(key, pos(i + 1), i + 1)
        got = [e.key for e in tree.range(b"k010", b"k020")]
        assert got == keys[10:20]
        assert [e.key for e in tree.range(b"k010", b"k020", limit=3)] == keys[10:13]
        assert tree.range(b"k990", b"zzz") == []

    def test_items_from_starts_mid_tree(self):
        tree = AdaptiveRadixTree()
        for i in range(50):
            tree.put(b"%04d" % (i * 2), pos(i + 1), i + 1)
        got = [e.key for e in tree.items_from(b"0013")]
        assert got[0] == b"0014"
        assert len(got) == 43


class TestSnapshot:
    def build(self, n=500):
        tree = AdaptiveRadixTree()
        rng = random.Random(3)
        for i in range(n):
            key = b"key%05d" % rng.randrange(n * 4)
            tree.put(key, pos(i + 1), i + 1)
        return tree

    def test_roundtrip_preserves_everything(self):
        tree = self.build()
        buf = io.BytesIO()
        count, last_lsn = tree.snapshot_write(buf, cursor=(3, 4096))
        assert count == tree.size
        buf.seek(0)
        loaded, got_lsn, cursor = AdaptiveRadixTree.snapshot_load(buf)
        assert got_lsn == last_lsn and cursor == (3, 4096)
        assert [e for e in loaded.items()] == [e for e in tree.items()]

    def test_truncated_snapshot_rejected(self):
        buf = io.BytesIO()
        self.build(100).snapshot_write(buf)
        data = buf.getvalue()
        with pytest.raises(SnapshotCorruptError):
            AdaptiveRadixTree.snapshot_load(io.BytesIO(data[:len(data) // 2]))

    def test_bitflip_rejected(self):
        buf = io.BytesIO()
        self.build(100).snapshot_write(buf)
        data = bytearray(buf.getvalue())
        data[30] ^= 0x40
        with pytest.raises(SnapshotCorruptError):
            AdaptiveRadixTree.snapshot_load(io.BytesIO(bytes(data)))

    def test_empty_tree_snapshot(self):
        buf = io.BytesIO()
        AdaptiveRadixTree().snapshot_write(buf)
        buf.seek(0)
        loaded, last_lsn, _ = AdaptiveRadixTree.snapshot_load(buf)
        assert loaded.size == 0 and last_lsn == 0


def snapshot_bytes(keys, count=None):
    """A snapshot file with a valid checksum holding `keys` in the given order."""
    body = b"".join(struct.pack("<IIQQ", len(k), 0, i, i + 1) + k for i, k in enumerate(keys))
    data = struct.pack("<IB", 0x4C534958, 1) + body + struct.pack(
        "<QQIQ", len(keys) if count is None else count, len(keys), 0, 0)
    return data + struct.pack("<I", zlib.crc32(data))


# short keys over a tiny alphabet share prefixes and are prefixes of each
# other; one- and two-byte keys give wide nodes (Node48, Node256)
art_keys = st.one_of(
    st.lists(st.sampled_from([0, 1, 255]), min_size=1, max_size=6).map(bytes),
    st.binary(min_size=1, max_size=2),
    st.binary(min_size=1, max_size=10),
)


class TestBulkLoad:
    @given(st.sets(art_keys, max_size=400), st.lists(art_keys, max_size=20), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_bulk_loaded_tree_equals_insertion_built(self, keys, probes, rnd):
        order = sorted(keys)
        rnd.shuffle(order)
        built = AdaptiveRadixTree()
        for i, key in enumerate(order):
            built.put(key, pos(i), i + 1)
        buf = io.BytesIO()
        built.snapshot_write(buf, cursor=(2, 7))
        buf.seek(0)
        loaded, _, cursor = AdaptiveRadixTree.snapshot_load(buf)
        assert cursor == (2, 7)
        assert list(loaded.items()) == list(built.items())
        assert loaded.node_kinds() == built.node_kinds()
        assert loaded.size == built.size == len(keys)
        for key in order + probes:
            assert loaded.get(key) == built.get(key)
            assert list(loaded.items_from(key)) == list(built.items_from(key))
        for a, b in zip(probes, probes[1:]):
            assert loaded.range(a, b, 5) == built.range(a, b, 5)

    def test_loaded_tree_takes_further_writes(self):
        keys = [b"x" + bytes([b]) for b in range(60)] + [b"x", b"xyz"]
        built = AdaptiveRadixTree()
        for i, key in enumerate(keys):
            built.put(key, pos(i), i + 1)
        buf = io.BytesIO()
        built.snapshot_write(buf)
        buf.seek(0)
        loaded, _, _ = AdaptiveRadixTree.snapshot_load(buf)
        for tree in (built, loaded):
            for b in range(40):
                tree.remove(b"x" + bytes([b]))
            tree.put(b"xa", pos(99), 99)
        assert list(loaded.items()) == list(built.items())
        assert loaded.node_kinds() == built.node_kinds()

    def test_hand_built_snapshot_loads(self):
        loaded, last_lsn, _ = AdaptiveRadixTree.snapshot_load(
            io.BytesIO(snapshot_bytes([b"a", b"ab", b"b"])))
        assert [e.key for e in loaded.items()] == [b"a", b"ab", b"b"]
        assert last_lsn == 3

    @pytest.mark.parametrize("keys", [
        [b"a", b"a"],                   # duplicate key
        [b"a", b"b", b"b", b"c"],
        [b"b", b"a"],                   # out of order
        [b"ab", b"a"],                  # prefix after its extension
        [b"a", b"c", b"b"],
        [b""],                          # empty key
    ])
    def test_unordered_snapshot_with_valid_crc_rejected(self, keys):
        with pytest.raises(SnapshotCorruptError):
            AdaptiveRadixTree.snapshot_load(io.BytesIO(snapshot_bytes(keys)))

    def test_entry_count_mismatch_rejected(self):
        with pytest.raises(SnapshotCorruptError):
            AdaptiveRadixTree.snapshot_load(io.BytesIO(snapshot_bytes([b"a", b"b"], count=3)))


class TestPackedLeaves:
    """A leaf is its key and one int: version_lsn << 64 | offset << 32 | segment_id."""

    def test_index_bytes_per_key_stay_below_100(self):
        # dense 8-byte keys at cold-mixed-like positions: 92.6 B a key with
        # packed leaves, 136.6 B with a three-attribute leaf
        n = 20_000
        keys = [struct.pack(">Q", i) for i in range(n)]
        tree = AdaptiveRadixTree()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, key in enumerate(keys):
                tree.put(key, LogPosition(i % 3, 1000 + 233 * i), 50_000 + i)
            per_key = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert per_key < 100, per_key

    @pytest.mark.parametrize("segment_id, offset, lsn", [
        (0, 0, 1), (2**32 - 1, 2**32 - 1, 2**64 - 1), (7, 2**32 - 1, 1), (2**32 - 1, 0, 2**40)])
    def test_extreme_fields_round_trip(self, segment_id, offset, lsn):
        tree = AdaptiveRadixTree()
        tree.put(b"k", LogPosition(segment_id, offset), lsn)
        assert tree.get(b"k") == (b"k", (segment_id, offset), lsn)
        assert tree.put(b"k", LogPosition(1, 1), lsn) == (b"k", (segment_id, offset), lsn)
        assert tree.get(b"k") == (b"k", (segment_id, offset), lsn)  # not newer: kept
        assert tree.reposition(b"k", LogPosition(3, 5), lsn)
        assert tree.get(b"k") == (b"k", (3, 5), lsn)

    def test_snapshot_bytes_are_the_field_by_field_format(self):
        fields = {b"a": (2**32 - 1, 2**32 - 1, 9), b"ab": (0, 5, 2**64 - 1), b"b": (3, 0, 4)}
        tree = AdaptiveRadixTree()
        for key, (segment_id, offset, lsn) in fields.items():
            tree.put(key, LogPosition(segment_id, offset), lsn)
        buf = io.BytesIO()
        tree.snapshot_write(buf, cursor=(6, 7))
        body = b"".join(struct.pack("<IIQQ", len(k), s, o, v) + k
                        for k, (s, o, v) in sorted(fields.items()))
        data = struct.pack("<IB", 0x4C534958, 1) + body + struct.pack("<QQIQ", 3, 2**64 - 1, 6, 7)
        assert buf.getvalue() == data + struct.pack("<I", zlib.crc32(data))

    def test_snapshot_offset_beyond_32_bits_rejected(self):
        data = struct.pack("<IB", 0x4C534958, 1) + struct.pack("<IIQQ", 1, 0, 2**32, 1) + b"a"
        data += struct.pack("<QQIQ", 1, 1, 0, 0)
        data += struct.pack("<I", zlib.crc32(data))
        with pytest.raises(SnapshotCorruptError):
            AdaptiveRadixTree.snapshot_load(io.BytesIO(data))
