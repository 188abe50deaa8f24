"""Adaptive radix tree mapping key bytes to log positions.

Inner nodes have two layouts, with pessimistic path compression (the full
prefix bytes are stored on the node): a sorted list of up to 48 children and
a 256-slot array.  ART's Node4/16/48/256 kinds remain as labels (`kind`).
Keys that are prefixes of other keys are held in the inner node's
`value_leaf` slot, which sorts before all children, so whole-tree iteration
is plain byte order.

The shape is canonical: an inner node exists exactly where keys branch, and
its layout is a list exactly when it has at most 48 children.  That is what
lets `snapshot_load` build the tree bottom-up from sorted entries and end
with the same tree that inserting them one by one would give.

Index entries carry a version LSN; `put` replaces an entry only when the new
version is strictly higher, which makes recovery replay idempotent.  A leaf
holds its key and one int, `version_lsn << 64 | offset << 32 | segment_id`,
after the ART paper's combined pointer/value slots: 84 bytes a leaf by
tracemalloc, the key not counted.  The log keeps every record start below
4 GiB in its segment (`wal.MAX_SEGMENT_BYTES`), so an offset fits its 32 bits.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left, bisect_right, insort
from itertools import islice
from typing import BinaryIO, Iterator, NamedTuple

from .errors import SnapshotCorruptError
from .wal import LogPosition

NODE4 = 4
NODE16 = 16
NODE48 = 48
NODE256 = 256

_SNAP_MAGIC = 0x4C534958  # "LSIX"
_SNAP_VERSION = 1
_SNAP_HEADER = struct.Struct("<IB")
# an entry is key_len u32, segment_id u32, offset u64, version_lsn u64; read
# as below, the middle is a leaf's low 64 bits and the offset's high half
_SNAP_ENTRY = struct.Struct("<IQIQ")    # key_len, offset << 32 | segment_id, 0, version_lsn
_SNAP_TRAILER = struct.Struct("<QQIQI")  # entry_count, last_lsn, cursor_seg, cursor_off, crc
_SNAP_WRITE_CHUNK = 4096                 # entries per sink.write

_from_bytes = int.from_bytes
_new_tuple = tuple.__new__
_LOW32 = 0xFFFFFFFF
_LOW64 = (1 << 64) - 1


class IndexEntry(NamedTuple):
    key: bytes
    position: LogPosition
    version_lsn: int


class _Leaf:
    __slots__ = ("key", "packed")  # packed: version_lsn << 64 | offset << 32 | segment_id

    def __init__(self, key: bytes, packed: int):
        self.key = key
        self.packed = packed

    def entry(self) -> IndexEntry:
        # tuple.__new__ skips the Python-level __new__ of both named tuples,
        # which costs more than the rest of a lookup
        packed = self.packed
        return _new_tuple(IndexEntry, (
            self.key, _new_tuple(LogPosition, (packed & _LOW32, packed >> 32 & _LOW32)),
            packed >> 64))


def _pack(position: LogPosition, version_lsn: int) -> int:
    segment_id, offset = position
    return version_lsn << 64 | offset << 32 | segment_id


# Both inner layouts answer the same calls, so a descent dispatches on the
# node's own class:
#   find(byte)          child or None
#   set_child(byte, c)  insert or replace; returns the node, or a _Node256
#   remove_child(byte)  returns the node, or a _ListNode
#   pairs()             [(byte, child)] in byte order
#   child_list()        children in byte order
#   children_after(b)   children with a byte > b, in byte order
#
# `kind` is a label, the smallest of ART's Node4/16/48/256 that holds the
# children.  In CPython every slot of Node48's 256-entry byte index is an
# 8-byte pointer, as big as Node256's array, so the list layout serves
# Node4, Node16 and Node48.


class _ListNode:
    """Up to 48 children: ascending child bytes, bisected, beside the children."""
    __slots__ = ("prefix", "value_leaf", "keys", "children")

    def __init__(self, prefix: bytes):
        self.prefix = prefix
        self.value_leaf: _Leaf | None = None
        self.keys: list[int] = []
        self.children: list[object] = []

    @property
    def count(self) -> int:
        return len(self.keys)

    @property
    def kind(self) -> int:
        n = len(self.keys)
        return NODE4 if n <= NODE4 else NODE16 if n <= NODE16 else NODE48

    def find(self, byte: int):
        keys = self.keys
        i = bisect_left(keys, byte)
        if i < len(keys) and keys[i] == byte:
            return self.children[i]
        return None

    def set_child(self, byte: int, child):
        keys = self.keys
        i = bisect_left(keys, byte)
        if i < len(keys) and keys[i] == byte:
            self.children[i] = child
            return self
        if len(keys) == NODE48:
            return _resized(self, self.pairs(), (byte, child))
        keys.insert(i, byte)
        self.children.insert(i, child)
        return self

    def remove_child(self, byte: int):
        i = bisect_left(self.keys, byte)
        del self.keys[i]
        del self.children[i]
        return self

    def pairs(self) -> list[tuple[int, object]]:
        return list(zip(self.keys, self.children))

    def child_list(self) -> list[object]:
        return self.children

    def children_after(self, byte: int) -> list[object]:
        return self.children[bisect_right(self.keys, byte):]


class _Node256:
    __slots__ = ("prefix", "value_leaf", "children", "count")
    kind = NODE256

    def __init__(self, prefix: bytes):
        self.prefix = prefix
        self.value_leaf: _Leaf | None = None
        self.children: list[object | None] = [None] * 256
        self.count = 0

    def find(self, byte: int):
        return self.children[byte]

    def set_child(self, byte: int, child):
        if self.children[byte] is None:
            self.count += 1
        self.children[byte] = child
        return self

    def remove_child(self, byte: int):
        self.children[byte] = None
        self.count -= 1
        if self.count <= NODE48:
            return _resized(self, self.pairs())
        return self

    def pairs(self) -> list[tuple[int, object]]:
        return [(byte, child) for byte, child in enumerate(self.children)
                if child is not None]

    def child_list(self) -> list[object]:
        return [child for child in self.children if child is not None]

    def children_after(self, byte: int) -> list[object]:
        return [child for child in self.children[byte + 1:] if child is not None]


def _make_node(prefix: bytes, value_leaf, keys: list[int], children: list[object]):
    """The layout that holds `children` under ascending `keys`."""
    if len(keys) <= NODE48:
        node = _ListNode(prefix)
        node.keys = keys
        node.children = children
    else:
        node = _Node256(prefix)
        slots = node.children
        for byte, child in zip(keys, children):
            slots[byte] = child
        node.count = len(keys)
    node.value_leaf = value_leaf
    return node


def _resized(node, pairs: list[tuple[int, object]], extra: tuple[int, object] | None = None):
    """`node`'s prefix and value leaf over `pairs` (plus `extra`), in the
    layout that holds them."""
    if extra is not None:
        insort(pairs, extra)
    return _make_node(node.prefix, node.value_leaf,
                      [b for b, _ in pairs], [c for _, c in pairs])


def _common_prefix_len(a: bytes, b: bytes) -> int:
    """Length of the common prefix: the first differing byte, found as the
    highest set bit of the big-endian XOR of both strings."""
    n = len(a) if len(a) < len(b) else len(b)
    x = _from_bytes(a[:n], "big") ^ _from_bytes(b[:n], "big")
    return n - (x.bit_length() + 7) // 8


class AdaptiveRadixTree:
    """Ordered byte-key index; at most one entry per key."""

    def __init__(self) -> None:
        self.root = None
        self.size = 0

    # -- point operations -------------------------------------------------

    def get(self, key: bytes) -> IndexEntry | None:
        leaf = self._find_leaf(key)
        return leaf.entry() if leaf is not None else None

    def put(self, key: bytes, position: LogPosition, version_lsn: int) -> IndexEntry | None:
        """Insert, or replace iff version_lsn is strictly newer.

        Returns the displaced entry; a stale put is a no-op that returns the
        existing (fresher) entry.
        """
        if not key:
            raise ValueError("empty key")
        segment_id, offset = position
        packed = version_lsn << 64 | offset << 32 | segment_id  # _pack, inlined: replay runs this
        node = self.root
        if node is None:
            self.root = _Leaf(key, packed)
            self.size = 1
            return None
        parent = None       # inner node that holds `node` under `parent_byte`
        parent_byte = 0
        depth = 0
        while True:
            if node.__class__ is _Leaf:
                if node.key == key:
                    return _update_leaf(node, packed)
                replacement = _split_leaf(node, _Leaf(key, packed), depth)
                break
            prefix = node.prefix
            if prefix:
                end = depth + len(prefix)
                part = key[depth:end]
                if part != prefix:
                    replacement = _split_node(
                        node, _Leaf(key, packed), depth, _common_prefix_len(part, prefix))
                    break
                depth = end
            if depth == len(key):
                leaf = node.value_leaf
                if leaf is not None:
                    return _update_leaf(leaf, packed)
                node.value_leaf = _Leaf(key, packed)
                self.size += 1
                return None
            byte = key[depth]
            child = node.find(byte)
            if child is None:
                replacement = node.set_child(byte, _Leaf(key, packed))
                if replacement is node:
                    self.size += 1
                    return None
                break
            parent, parent_byte, node = node, byte, child
            depth += 1
        self.size += 1
        if parent is None:
            self.root = replacement
        else:
            parent.set_child(parent_byte, replacement)
        return None

    def reposition(self, key: bytes, position: LogPosition, version_lsn: int) -> bool:
        """Compaction remap: move an entry iff its version matches exactly."""
        leaf = self._find_leaf(key)
        if leaf is None or leaf.packed >> 64 != version_lsn:
            return False
        leaf.packed = _pack(position, version_lsn)
        return True

    def _find_leaf(self, key: bytes) -> _Leaf | None:
        node = self.root
        depth = 0
        while node is not None:
            if node.__class__ is _Leaf:
                return node if node.key == key else None
            prefix = node.prefix
            if prefix:
                end = depth + len(prefix)
                if key[depth:end] != prefix:
                    return None
                depth = end
            if depth == len(key):
                return node.value_leaf
            node = node.find(key[depth])
            depth += 1
        return None

    def remove(self, key: bytes) -> IndexEntry | None:
        """Drop `key`'s entry and return it.  Walking back up the path, a node
        left empty goes too, and one that shrank or collapsed replaces itself."""
        path: list[tuple[object, int]] = []  # (inner node, byte taken below it)
        node = self.root
        depth = 0
        while node is not None:
            if node.__class__ is _Leaf:
                if node.key != key:
                    return None
                found, old, new = node, node, None
                break
            prefix = node.prefix
            if prefix and key[depth:depth + len(prefix)] != prefix:
                return None
            depth += len(prefix)
            if depth == len(key):
                found = node.value_leaf
                if found is None:
                    return None
                node.value_leaf = None
                old, new = node, _collapse(node)
                break
            byte = key[depth]
            path.append((node, byte))
            node = node.find(byte)
            depth += 1
        else:
            return None
        self.size -= 1
        while new is None and path:
            old, byte = path.pop()
            new = _collapse(old.remove_child(byte))
        if new is not old:
            if path:
                parent, byte = path[-1]
                parent.set_child(byte, new)
            else:
                self.root = new
        return found.entry()

    # -- ordered iteration --------------------------------------------------

    def items(self) -> Iterator[IndexEntry]:
        for leaf in self._leaves(None):
            yield leaf.entry()

    def items_from(self, start_key: bytes, end_key: bytes | None = None) -> Iterator[IndexEntry]:
        """Entries with start_key <= key (< end_key, if given), built one at a
        time as the walk reaches them."""
        for leaf in self._leaves(start_key):
            if end_key is not None and leaf.key >= end_key:
                return
            yield leaf.entry()

    def _leaves(self, start: bytes | None) -> Iterator[_Leaf]:
        """Leaves with key >= start (all when start is None), in key order.

        One explicit stack, topped by the smallest pending subtree: the seek
        pushes, level by level, the siblings right of `start`'s path, so the
        walk below only ever expands whole subtrees.
        """
        stack: list[object] = []
        node = self.root
        if start is None:
            if node is not None:
                stack.append(node)
        else:
            depth = 0
            while node is not None:
                if node.__class__ is _Leaf:
                    if node.key >= start:
                        stack.append(node)
                    break
                prefix = node.prefix
                end = depth + len(prefix)
                part = start[depth:end]
                if part != prefix:
                    # `start` leaves this path inside the prefix: the whole
                    # subtree sorts after it, or all of it before
                    if part < prefix:
                        stack.append(node)
                    break
                depth = end
                if depth == len(start):
                    stack.append(node)  # its value leaf is `start` itself
                    break
                byte = start[depth]
                stack.extend(reversed(node.children_after(byte)))
                node = node.find(byte)
                depth += 1
        pop, extend = stack.pop, stack.extend
        while stack:
            node = pop()
            if node.__class__ is _Leaf:
                yield node
                continue
            extend(reversed(node.child_list()))
            if node.value_leaf is not None:
                yield node.value_leaf

    def range(self, start_key: bytes, end_key: bytes, limit: int | None = None) -> list[IndexEntry]:
        """Entries with start_key <= key < end_key in ascending order."""
        return list(islice(self.items_from(start_key, end_key), limit))

    # -- snapshots ------------------------------------------------------------

    def snapshot_write(
        self, sink: BinaryIO, cursor: tuple[int, int] = (0, 0), last_lsn: int = 0
    ) -> tuple[int, int]:
        """Serialize all entries in key order; returns (entry_count, last_lsn).

        `cursor` is the log replay position (active segment id, offset) at
        freeze time, stored in the trailer so recovery can seek straight to
        the uncovered tail.  The trailer's last LSN is the larger of
        `last_lsn` and the highest entry version.
        """
        header = _SNAP_HEADER.pack(_SNAP_MAGIC, _SNAP_VERSION)
        sink.write(header)
        crc = zlib.crc32(header)
        count = 0
        pack = _SNAP_ENTRY.pack
        parts: list[bytes] = []
        for leaf in self._leaves(None):
            key, packed = leaf.key, leaf.packed
            lsn = packed >> 64
            parts.append(pack(len(key), packed & _LOW64, 0, lsn))
            parts.append(key)
            if lsn > last_lsn:
                last_lsn = lsn
            count += 1
            if len(parts) >= 2 * _SNAP_WRITE_CHUNK:
                chunk = b"".join(parts)
                sink.write(chunk)
                crc = zlib.crc32(chunk, crc)
                parts.clear()
        chunk = b"".join(parts)
        sink.write(chunk)
        crc = zlib.crc32(chunk, crc)
        tail_wo_crc = struct.pack("<QQIQ", count, last_lsn, cursor[0], cursor[1])
        crc = zlib.crc32(tail_wo_crc, crc)
        sink.write(tail_wo_crc + struct.pack("<I", crc))
        return count, last_lsn

    @classmethod
    def snapshot_load(cls, source: BinaryIO) -> tuple["AdaptiveRadixTree", int, tuple[int, int]]:
        """Rebuild a tree from a snapshot; returns (tree, last_lsn, cursor).

        The entries arrive in key order, so the tree is built bottom-up in
        one pass (see `_bulk_build`), with no descent from the root per key.
        Raises SnapshotCorruptError on truncation, checksum mismatch, an
        entry count that disagrees with the trailer, or keys that are not
        strictly ascending.
        """
        data = source.read()
        if len(data) < _SNAP_HEADER.size + _SNAP_TRAILER.size:
            raise SnapshotCorruptError("snapshot too short")
        magic, version = _SNAP_HEADER.unpack_from(data)
        if magic != _SNAP_MAGIC or version != _SNAP_VERSION:
            raise SnapshotCorruptError("bad snapshot header")
        count, last_lsn, cur_seg, cur_off, crc = _SNAP_TRAILER.unpack_from(
            data, len(data) - _SNAP_TRAILER.size
        )
        if zlib.crc32(memoryview(data)[:-4]) != crc:
            raise SnapshotCorruptError("snapshot checksum mismatch")
        tree = cls()
        tree.root, tree.size = _bulk_build(data, _SNAP_HEADER.size,
                                           len(data) - _SNAP_TRAILER.size)
        if tree.size != count:
            raise SnapshotCorruptError(f"entry count mismatch: {tree.size} != {count}")
        return tree, last_lsn, (cur_seg, cur_off)

    # -- debug introspection ---------------------------------------------------

    def node_kinds(self) -> dict[int, int]:
        """Histogram {kind -> count} of inner nodes, for adaptivity tests."""
        hist: dict[int, int] = {}
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            if node.__class__ is _Leaf:
                continue
            hist[node.kind] = hist.get(node.kind, 0) + 1
            stack.extend(node.child_list())
        return hist

    def root_kind(self) -> int | None:
        if self.root is None or self.root.__class__ is _Leaf:
            return None
        return self.root.kind


def _update_leaf(leaf: _Leaf, packed: int) -> IndexEntry:
    old = leaf.entry()
    if packed >> 64 > leaf.packed >> 64:
        leaf.packed = packed
    return old


def _split_leaf(old: _Leaf, new: _Leaf, depth: int):
    """Replace a leaf by a node distinguishing two keys below `depth`."""
    a, b = old.key[depth:], new.key[depth:]
    common = _common_prefix_len(a, b)
    node = _ListNode(a[:common])
    for leaf, rest in ((old, a), (new, b)):
        if len(rest) == common:
            node.value_leaf = leaf
        else:
            node.set_child(rest[common], leaf)
    return node


def _split_node(node, new_leaf: _Leaf, depth: int, common: int):
    """Split a compressed prefix at `common` and hang the old node below."""
    p = node.prefix
    parent = _ListNode(p[:common])
    node.prefix = p[common + 1:]
    parent.set_child(p[common], node)
    rest = new_leaf.key[depth + common:]
    if not rest:
        parent.value_leaf = new_leaf
    else:
        parent.set_child(rest[0], new_leaf)
    return parent


def _collapse(node):
    """Restore path compression after a removal."""
    n = node.count
    if n == 0:
        return node.value_leaf  # may be None: node vanishes entirely
    if n == 1 and node.value_leaf is None:
        byte, child = node.pairs()[0]
        if child.__class__ is _Leaf:
            return child
        child.prefix = node.prefix + bytes([byte]) + child.prefix
        return child
    return node


def _bulk_build(data: bytes, offset: int, end: int) -> tuple[object, int]:
    """Build the canonical tree from snapshot entries in data[offset:end].

    Returns (root, entry count).  The entries must be in strictly ascending
    key order.  In such a sequence the common prefix of each key with the one
    before it says where the tree branches: the keys of one inner node are a
    run whose neighbours share at least the node's branch depth.  So one
    pass keeps a stack of open nodes with increasing branch depths; a key
    whose common prefix with the previous key is shorter than the top's
    branch depth closes that node, which becomes a child of the node below
    it (or of a new node opened at that shorter depth).  A closed node's
    prefix is known once its parent is: the bytes between the parent's
    branch byte and its own branch depth.
    """
    unpack = _SNAP_ENTRY.unpack_from
    entry_size = _SNAP_ENTRY.size
    # open nodes: [branch depth, first key, value leaf, child bytes, children]
    stack: list[list] = []
    prev_leaf = None    # the previous key's leaf, attached once the next key is read
    prev = b""
    count = 0
    while offset < end:
        key_len, position, offset_high, lsn = unpack(data, offset)
        offset += entry_size
        key = data[offset:offset + key_len]
        offset += key_len
        if key <= prev or offset_high:
            raise SnapshotCorruptError(f"snapshot entry {count}: key not above the previous "
                                       "one, or offset beyond 4 GiB")
        leaf = _Leaf(key, lsn << 64 | position)
        count += 1
        if prev_leaf is not None:
            # _common_prefix_len(prev, key), inlined: this runs once per entry
            n = len(prev) if len(prev) < len(key) else len(key)
            x = _from_bytes(prev[:n], "big") ^ _from_bytes(key[:n], "big")
            common = n - (x.bit_length() + 7) // 8
            if stack and stack[-1][0] == common:
                # the common case: the previous key and this one are siblings
                top = stack[-1]
                if len(prev) == common:
                    top[2] = prev_leaf
                else:
                    top[3].append(prev[common])
                    top[4].append(prev_leaf)
            else:
                child, first, child_depth = _close_deeper(stack, common, prev_leaf, prev, -1)
                if not stack or stack[-1][0] < common:
                    stack.append([common, first, None, [], []])
                _attach(stack[-1], child, first, child_depth)
        prev_leaf, prev = leaf, key
    if offset != end:
        raise SnapshotCorruptError("snapshot entry overruns the trailer")
    if prev_leaf is None:
        return None, 0
    root, first, root_depth = _close_deeper(stack, -1, prev_leaf, prev, -1)
    if root_depth >= 0:
        root.prefix = first[:root_depth]
    return root, count


def _close_deeper(stack: list[list], depth: int, child, first_key: bytes, child_depth: int):
    """Close the open nodes that branch deeper than `depth`, each one taking
    the subtree closed before it; returns the last (subtree, first key,
    branch depth)."""
    while stack and stack[-1][0] > depth:
        top = stack.pop()
        _attach(top, child, first_key, child_depth)
        child = _make_node(b"", top[2], top[3], top[4])
        first_key, child_depth = top[1], top[0]
    return child, first_key, child_depth


def _attach(parent: list, child, first_key: bytes, child_depth: int) -> None:
    """Hang a finished subtree (a leaf when child_depth is -1) on an open node."""
    depth = parent[0]
    if child_depth >= 0:
        child.prefix = first_key[depth + 1:child_depth]
    if len(first_key) == depth:
        parent[2] = child
    else:
        parent[3].append(first_key[depth])
        parent[4].append(child)
