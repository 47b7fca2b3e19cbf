"""B+tree: unit tests plus property tests against a dict-of-lists oracle."""

import bisect
import itertools
import random
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.indexstructures.base import Index, IndexKind, PageHook
from repro.indexstructures.btree import (DEFAULT_ORDER, BPlusTree, _Internal,
                                         _Leaf, _Node)

from tests.conftest import machine_examples


def test_empty_tree():
    tree = BPlusTree()
    assert len(tree) == 0
    assert tree.get(1) == []
    assert list(tree.items()) == []
    assert tree.min_key() is None


def test_single_insert_get():
    tree = BPlusTree()
    tree.insert(5, "a")
    assert tree.get(5) == ["a"]
    assert len(tree) == 1


def test_multimap_values_accumulate():
    tree = BPlusTree()
    tree.insert(5, "a")
    tree.insert(5, "b")
    assert sorted(tree.get(5)) == ["a", "b"]
    assert len(tree) == 2


def test_duplicate_pair_idempotent():
    tree = BPlusTree()
    tree.insert(5, "a")
    tree.insert(5, "a")
    assert tree.get(5) == ["a"]
    assert len(tree) == 1


def test_order_below_three_rejected():
    with pytest.raises(ValueError):
        BPlusTree(order=2)


def test_splits_grow_height():
    tree = BPlusTree(order=4)
    for i in range(100):
        tree.insert(i, i)
    assert tree.height > 1
    tree.check_invariants()


def test_items_sorted_by_key():
    tree = BPlusTree(order=4)
    keys = random.Random(3).sample(range(1000), 200)
    for k in keys:
        tree.insert(k, k)
    assert [k for k, _ in tree.items()] == sorted(keys)


def test_range_inclusive_bounds():
    tree = BPlusTree(order=4)
    for i in range(20):
        tree.insert(i, i)
    assert [k for k, _ in tree.range(5, 8)] == [5, 6, 7, 8]


def test_range_exclusive_bounds():
    tree = BPlusTree(order=4)
    for i in range(20):
        tree.insert(i, i)
    got = [k for k, _ in tree.range(5, 8, include_low=False, include_high=False)]
    assert got == [6, 7]


def test_range_open_ended():
    tree = BPlusTree(order=4)
    for i in range(10):
        tree.insert(i, i)
    assert [k for k, _ in tree.range(None, 2)] == [0, 1, 2]
    assert [k for k, _ in tree.range(7, None)] == [7, 8, 9]


def test_range_between_keys():
    tree = BPlusTree()
    for i in (10, 20, 30):
        tree.insert(i, i)
    assert [k for k, _ in tree.range(11, 19)] == []


def test_remove_specific_value():
    tree = BPlusTree()
    tree.insert(1, "a")
    tree.insert(1, "b")
    assert tree.remove(1, "a") == 1
    assert tree.get(1) == ["b"]


def test_remove_all_values_under_key():
    tree = BPlusTree()
    tree.insert(1, "a")
    tree.insert(1, "b")
    assert tree.remove(1) == 2
    assert tree.get(1) == []
    assert len(tree) == 0


def test_remove_missing_key_returns_zero():
    tree = BPlusTree()
    tree.insert(1, "a")
    assert tree.remove(2) == 0
    assert tree.remove(1, "zzz") == 0


def test_remove_rebalances():
    tree = BPlusTree(order=4)
    for i in range(200):
        tree.insert(i, i)
    for i in range(0, 200, 2):
        assert tree.remove(i) == 1
    tree.check_invariants()
    assert [k for k, _ in tree.items()] == list(range(1, 200, 2))


def test_remove_everything_then_reinsert():
    tree = BPlusTree(order=4)
    for i in range(100):
        tree.insert(i, i)
    for i in range(100):
        tree.remove(i)
    assert len(tree) == 0
    tree.check_invariants()
    tree.insert(7, "x")
    assert tree.get(7) == ["x"]


def test_string_keys():
    tree = BPlusTree(order=4)
    for word in ["banana", "apple", "cherry"]:
        tree.insert(word, word.upper())
    assert [k for k, _ in tree.items()] == ["apple", "banana", "cherry"]


def test_page_hook_called():
    touched = []
    tree = BPlusTree(order=4, page_hook=lambda nid, w: touched.append((nid, w)))
    for i in range(50):
        tree.insert(i, i)
    tree.get(25)
    assert touched
    assert any(w for _, w in touched)       # writes happened
    assert any(not w for _, w in touched)   # reads happened


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-500, 500), st.integers(0, 5)), max_size=300),
       st.integers(3, 16))
def test_property_matches_oracle_after_inserts(pairs, order):
    tree = BPlusTree(order=order)
    oracle = {}
    for key, value in pairs:
        tree.insert(key, value)
        oracle.setdefault(key, set()).add(value)
    tree.check_invariants()
    assert len(tree) == sum(len(v) for v in oracle.values())
    for key, values in oracle.items():
        assert set(tree.get(key)) == values
    assert [k for k, _ in tree.items()] == sorted(
        k for k, vs in oracle.items() for _ in vs)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(-100, 100)), max_size=400),
       st.integers(3, 8))
# Emptying the only leaf under a biased frontier split's one-child internal.
@example([(True, k) for k in range(13)] + [(False, 12)], 3)
def test_property_interleaved_insert_delete(ops, order):
    tree = BPlusTree(order=order)
    oracle = {}
    for is_insert, key in ops:
        if is_insert:
            tree.insert(key, key)
            oracle.setdefault(key, set()).add(key)
        else:
            removed = tree.remove(key)
            expected = len(oracle.pop(key, set()))
            assert removed == expected
    tree.check_invariants()
    assert sorted(k for k, _ in tree.items()) == sorted(oracle)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=200),
       st.integers(0, 1000), st.integers(0, 1000))
def test_property_range_equals_filter(keys, a, b):
    low, high = min(a, b), max(a, b)
    tree = BPlusTree(order=5)
    for k in keys:
        tree.insert(k, k)
    got = [k for k, _ in tree.range(low, high)]
    want = sorted(k for k in set(keys) if low <= k <= high)
    assert got == want


# -- append-frontier occupancy (the monotonic-key degenerate-split fix) --------


def _leaf_sizes(tree):
    leaf = tree._leftmost_leaf()
    sizes = []
    while leaf is not None:
        sizes.append(len(leaf.keys))
        leaf = leaf.next
    return sizes


def test_monotonic_inserts_keep_settled_leaves_full():
    """An append-only key stream (mtimes, sequential ids) used to
    mid-split every frontier leaf, pinning the whole tree at ~50%
    occupancy.  The biased frontier split leaves every settled
    (non-rightmost) leaf completely full — never below order/2."""
    order = 8
    tree = BPlusTree(order=order)
    for k in range(500):
        tree.insert(k, k)
    tree.check_invariants()
    sizes = _leaf_sizes(tree)
    assert all(s >= order // 2 for s in sizes[:-1])
    assert all(s == order for s in sizes[:-1])  # the bias packs them
    assert [k for k, _ in tree.items()] == list(range(500))


def test_descending_inserts_keep_min_occupancy():
    """The bias only triggers on the rightmost spine: a descending
    stream takes the classic mid-split and keeps the B+tree invariant."""
    order = 8
    tree = BPlusTree(order=order)
    for k in range(400, 0, -1):
        tree.insert(k, k)
    tree.check_invariants()
    assert all(s >= order // 2 for s in _leaf_sizes(tree)[:-1])


def test_monotonic_then_deletes_stay_consistent():
    """Full settled leaves must not break delete rebalancing."""
    order = 6
    tree = BPlusTree(order=order)
    for k in range(300):
        tree.insert(k, k)
    for k in range(0, 300, 3):
        assert tree.remove(k) == 1
    tree.check_invariants()
    assert sorted(k for k, _ in tree.items()) == [
        k for k in range(300) if k % 3 != 0]


# -- bulk_insert (the group-commit apply path) ---------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-500, 500), st.integers(0, 5)), max_size=200),
       st.lists(st.tuples(st.integers(-500, 500), st.integers(0, 5)), max_size=200),
       st.integers(3, 16))
def test_property_bulk_insert_matches_sequential(existing, batch, order):
    sequential = BPlusTree(order=order)
    bulk = BPlusTree(order=order)
    for key, value in existing:
        sequential.insert(key, value)
        bulk.insert(key, value)
    for key, value in batch:
        sequential.insert(key, value)
    added = bulk.bulk_insert(batch)
    bulk.check_invariants()
    assert added == len(bulk) - sum(
        1 for _ in {(k, v) for k, v in existing})
    assert len(bulk) == len(sequential)
    assert list(bulk.items()) == list(sequential.items())


def test_bulk_insert_after_the_frontier_leaf_empties():
    """Deleting the last key appended leaves the rightmost leaf, the only
    child of its frontier parent, with nothing to borrow from or merge
    with; the tree drops it instead of keeping it empty, so a batch that
    lands beside it finds a separator for every child."""
    tree = BPlusTree()
    for k in range(4161):
        tree.insert(k, k)
    assert tree.remove(4160, 4160) == 1
    tree.check_invariants()
    assert tree.bulk_insert([(4158.5, "x")]) == 1
    tree.check_invariants()
    assert [k for k, _ in tree.range(4158)] == [4158, 4158.5, 4159]


def test_bulk_insert_into_empty_and_again():
    tree = BPlusTree(order=4)
    assert tree.bulk_insert([(i, i) for i in range(100)]) == 100
    tree.check_invariants()
    assert tree.bulk_insert([(i, i + 1) for i in range(50, 150)]) == 100
    tree.check_invariants()
    assert len(tree) == 200
    assert tree.get(75) == [75, 76]
    got = [k for k, _ in tree.range(90, 110)]
    assert got == sorted(k for k in range(90, 111) for _ in
                         ([0, 1] if 50 <= k < 100 else [0]))


def test_one_hot_key_costs_constant_time_per_update():
    """20 000 files under one key, committed 64 at a time, then removed
    newest-first.  List buckets scan the key's values per new and per
    removed value (seconds); this must stay far inside one CPU-second."""
    tree = BPlusTree()
    n, batch = 20_000, 64
    start = time.process_time()
    for lo in range(0, n, batch):
        tree.bulk_insert((7, v) for v in range(lo, min(n, lo + batch)))
    assert len(tree) == n and tree.get(7)[:2] == [0, 1]
    for v in reversed(range(n)):
        assert tree.remove(7, v) == 1
    elapsed = time.process_time() - start
    assert len(tree) == 0 and tree.get(7) == []
    assert elapsed < 0.5, f"{elapsed:.2f} CPU-s"


# -- differential: the bisecting bulk merge against the walking one ----------------
#
# The group-commit merge this module's class replaced — a walk over every
# child of each node it enters and over every key of each leaf — kept
# verbatim as the reference for the walk, except that its buckets are the
# tree's insertion-ordered dicts (``ListBackedBPlusTree`` below is the
# reference for the bucket).


class WalkingBulkTree(BPlusTree):
    def bulk_insert(self, pairs) -> int:
        """Merge a sorted run of (key, value) pairs into the live tree.

        The group-commit counterpart of :meth:`bulk_load`: instead of one
        tree descent per pair, the input is sorted once, partitioned down
        the tree, and merged leaf-at-a-time; overflowing nodes split
        multi-way into ~2/3-full chunks (same fill/runt policy as
        ``bulk_load``).  Returns the number of pairs actually added
        (duplicates are idempotent, as with :meth:`insert`).
        """
        grouped: dict = {}
        for key, value in pairs:
            bucket = grouped.setdefault(key, {})
            if value not in bucket:
                bucket[value] = None
        if not grouped:
            return 0
        items = sorted(grouped.items())
        added_before = self._size
        nodes = self._bulk_merge(self._root, items)
        fill = max(2, (self.order * 2) // 3)
        min_children = self._min_keys() + 1
        while len(nodes) > 1:
            parents: List[_Internal] = []
            for i in range(0, len(nodes), fill + 1):
                parent = _Internal(next(self._ids))
                parent.children = nodes[i:i + fill + 1]
                parent.keys = [self._leftmost_key_of(c) for c in parent.children[1:]]
                self._touch(parent, write=True)
                parents.append(parent)
            if len(parents) > 1 and len(parents[-1].children) < min_children:
                prev, last = parents[-2], parents[-1]
                merged = prev.children + last.children
                if len(merged) <= self.order + 1:
                    prev.children = merged
                    prev.keys = [self._leftmost_key_of(c) for c in merged[1:]]
                    parents.pop()
                else:
                    half = len(merged) // 2
                    prev.children, last.children = merged[:half], merged[half:]
                    prev.keys = [self._leftmost_key_of(c) for c in prev.children[1:]]
                    last.keys = [self._leftmost_key_of(c) for c in last.children[1:]]
            nodes = list(parents)
            self._height += 1
        self._root = nodes[0]
        return self._size - added_before

    def _bulk_merge(self, node: _Node, items: List[Tuple[Any, Dict[Any, None]]]) -> List[_Node]:
        """Merge sorted ``(key, bucket)`` items into ``node``'s subtree.

        Returns the node(s) replacing ``node`` at its level — the first
        entry is always ``node`` itself (so an untouched parent pointer
        stays valid); extras are freshly split right siblings, each at
        least min-full thanks to the runt fixup.
        """
        if isinstance(node, _Leaf):
            return self._bulk_merge_leaf(node, items)
        self._touch(node)
        out_children: List[_Node] = []
        i = 0
        for ci, child in enumerate(node.children):
            hi = node.keys[ci] if ci < len(node.keys) else None
            j = i
            while hi is not None and j < len(items) and items[j][0] < hi:
                j += 1
            if hi is None:
                j = len(items)
            if j > i:
                out_children.extend(self._bulk_merge(child, items[i:j]))
            else:
                out_children.append(child)
            i = j
        node.children = out_children
        node.keys = [self._leftmost_key_of(c) for c in out_children[1:]]
        self._touch(node, write=True)
        if len(node.children) <= self.order + 1:
            return [node]
        # Multi-way internal split, ~2/3-full chunks with runt fixup.
        fill = max(2, (self.order * 2) // 3)
        min_children = self._min_keys() + 1
        chunks = [node.children[i:i + fill + 1]
                  for i in range(0, len(node.children), fill + 1)]
        if len(chunks) > 1 and len(chunks[-1]) < min_children:
            merged = chunks[-2] + chunks[-1]
            if len(merged) <= self.order + 1:
                chunks[-2:] = [merged]
            else:
                half = len(merged) // 2
                chunks[-2:] = [merged[:half], merged[half:]]
        node.children = chunks[0]
        node.keys = [self._leftmost_key_of(c) for c in node.children[1:]]
        out: List[_Node] = [node]
        for chunk in chunks[1:]:
            sibling = _Internal(next(self._ids))
            sibling.children = chunk
            sibling.keys = [self._leftmost_key_of(c) for c in chunk[1:]]
            self._touch(sibling, write=True)
            out.append(sibling)
        return out

    def _bulk_merge_leaf(self, leaf: _Leaf, items: List[Tuple[Any, Dict[Any, None]]]) -> List[_Node]:
        merged_keys: List[Any] = []
        merged_values: List[Dict[Any, None]] = []
        i = j = 0
        keys, values = leaf.keys, leaf.values
        while i < len(keys) and j < len(items):
            if keys[i] < items[j][0]:
                merged_keys.append(keys[i])
                merged_values.append(values[i])
                i += 1
            elif items[j][0] < keys[i]:
                merged_keys.append(items[j][0])
                merged_values.append(dict(items[j][1]))
                self._size += len(items[j][1])
                j += 1
            else:
                bucket = values[i]
                for v in items[j][1]:
                    if v not in bucket:
                        bucket[v] = None
                        self._size += 1
                merged_keys.append(keys[i])
                merged_values.append(bucket)
                i += 1
                j += 1
        merged_keys.extend(keys[i:])
        merged_values.extend(values[i:])
        for k, bucket in items[j:]:
            merged_keys.append(k)
            merged_values.append(dict(bucket))
            self._size += len(bucket)
        if len(merged_keys) <= self.order:
            leaf.keys, leaf.values = merged_keys, merged_values
            self._touch(leaf, write=True)
            return [leaf]
        # Multi-way leaf split, same fill/runt policy as bulk_load.
        fill = max(2, (self.order * 2) // 3)
        min_keys = self._min_keys()
        chunks = [(merged_keys[i:i + fill], merged_values[i:i + fill])
                  for i in range(0, len(merged_keys), fill)]
        if len(chunks) > 1 and len(chunks[-1][0]) < min_keys:
            ck = chunks[-2][0] + chunks[-1][0]
            cv = chunks[-2][1] + chunks[-1][1]
            if len(ck) <= self.order:
                chunks[-2:] = [(ck, cv)]
            else:
                half = len(ck) // 2
                chunks[-2:] = [(ck[:half], cv[:half]), (ck[half:], cv[half:])]
        old_next = leaf.next
        leaf.keys, leaf.values = chunks[0]
        self._touch(leaf, write=True)
        out: List[_Node] = [leaf]
        prev = leaf
        for ck, cv in chunks[1:]:
            sibling = _Leaf(next(self._ids))
            sibling.keys, sibling.values = ck, cv
            prev.next = sibling
            prev = sibling
            self._touch(sibling, write=True)
            out.append(sibling)
        prev.next = old_next
        return out


def shape(tree: BPlusTree):
    """Everything a tree is made of, as comparable data: each node's id,
    kind, typed keys and (for leaves) value buckets, nested as the tree
    nests them — then the leaf chain's ids, height and size."""
    def walk(node):
        keys = [(type(k).__name__, k) for k in node.keys]
        if isinstance(node, _Leaf):
            return ("leaf", node.node_id, keys, [list(v) for v in node.values])
        return ("internal", node.node_id, keys,
                [walk(child) for child in node.children])
    chain, leaf = [], tree._leftmost_leaf()
    while leaf is not None:
        chain.append(leaf.node_id)
        leaf = leaf.next
    return walk(tree._root), chain, tree.height, len(tree)


# Ints and floats on one line, with floats equal to ints among them (a key
# 3 may meet a 3.0 already in the tree); values collide so buckets grow.
TREE_KEYS = st.one_of(st.integers(-60, 60),
                      st.integers(-60, 60).map(float),
                      st.sampled_from([-2.5, 0.5, 7.25, 33.5]))
TREE_VALUES = st.integers(0, 3)
TREE_OPS = st.one_of(
    st.tuples(st.just("bulk_insert"),
              st.lists(st.tuples(TREE_KEYS, TREE_VALUES),
                       min_size=1, max_size=50)),
    st.tuples(st.just("insert"), TREE_KEYS, TREE_VALUES),
    st.tuples(st.just("remove"), TREE_KEYS, TREE_VALUES),
    st.tuples(st.just("remove"), TREE_KEYS),
)


@settings(max_examples=machine_examples(60), derandomize=True, deadline=None)
# A batch whose keys equal separators at every level of a three-level
# tree: such a key belongs to the child right of its separator.
@example(4, [("bulk_insert", [(k, 0) for k in range(40)]),
             ("bulk_insert", [(k, 1) for k in range(0, 40, 3)])])
@given(st.integers(4, 64), st.lists(TREE_OPS, min_size=1, max_size=60))
def test_bisecting_bulk_merge_matches_the_walking_reference(order, ops):
    touched, ref_touched = [], []
    tree = BPlusTree(order=order,
                     page_hook=lambda n, w: touched.append((n, w)))
    ref = WalkingBulkTree(order=order,
                          page_hook=lambda n, w: ref_touched.append((n, w)))
    for op, *args in ops:
        assert getattr(tree, op)(*args) == getattr(ref, op)(*args), op
        assert shape(tree) == shape(ref), op
        assert touched == ref_touched, op
        tree.check_invariants()
        ref.check_invariants()


# -- differential: dict buckets against the list-backed reference -------------------
#
# The list-bucket tree this module's class replaced, kept verbatim (renamed
# so it does not shadow the real one) as the reference: every answer, every
# node and every page touch must be the same.


class ListBackedBPlusTree(Index):
    """A B+tree multimap with leaf-chained range scans.

    ``order`` is the maximum number of keys per node; nodes split above it
    and rebalance below ``order // 2``.
    """

    kind = IndexKind.BTREE

    def __init__(self, order: int = DEFAULT_ORDER, page_hook: PageHook = None) -> None:
        if order < 3:
            raise ValueError(f"order must be >= 3: {order}")
        self.order = order
        self._page_hook = page_hook
        self._ids = itertools.count()
        self._root: _Node = _Leaf(next(self._ids))
        self._size = 0
        self._height = 1

    # -- cost accounting -------------------------------------------------

    def _touch(self, node: _Node, write: bool = False) -> None:
        if self._page_hook is not None:
            self._page_hook(node.node_id, write)

    # -- properties ------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Levels from root to leaves (1 for a single-leaf tree)."""
        return self._height

    # -- search ----------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            self._touch(node)
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        self._touch(node)
        return node  # type: ignore[return-value]

    def get(self, key: Any) -> List[Any]:
        """All values stored under exactly ``key`` ([] if absent)."""
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return list(leaf.values[idx])
        return []

    def range(self, low: Any = None, high: Any = None,
              include_low: bool = True, include_high: bool = True) -> Iterator[Tuple[Any, Any]]:
        """Yield (key, value) pairs with low <= key <= high in key order.

        ``None`` bounds are open-ended; ``include_*`` toggles strictness.
        """
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
            idx = 0
        else:
            leaf = self._find_leaf(low)
            if include_low:
                idx = bisect.bisect_left(leaf.keys, low)
            else:
                idx = bisect.bisect_right(leaf.keys, low)
        while leaf is not None:
            self._touch(leaf)
            while idx < len(leaf.keys):
                key = leaf.keys[idx]
                if high is not None:
                    if include_high:
                        if key > high:
                            return
                    elif key >= high:
                        return
                for value in leaf.values[idx]:
                    yield key, value
                idx += 1
            leaf = leaf.next
            idx = 0

    def range_values(self, low: Any = None, high: Any = None,
                     include_low: bool = True,
                     include_high: bool = True) -> List[Any]:
        """``[value for _, value in self.range(...)]`` by leaf slice: the
        in-range run of each leaf is found with a bisect and extended in
        bulk, touching the pages :meth:`range` touches, in its order."""
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
            idx = 0
        else:
            leaf = self._find_leaf(low)
            idx = (bisect.bisect_left if include_low
                   else bisect.bisect_right)(leaf.keys, low)
        end_of = bisect.bisect_right if include_high else bisect.bisect_left
        out: List[Any] = []
        while leaf is not None:
            self._touch(leaf)
            keys = leaf.keys
            end = len(keys) if high is None else end_of(keys, high, idx)
            for values in leaf.values[idx:end]:
                out.extend(values)
            if end < len(keys):
                break   # the first key past ``high`` ends the scan
            leaf = leaf.next
            idx = 0
        return out

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Every (key, value) pair in ascending key order."""
        return self.range()

    def min_key(self) -> Any:
        """Smallest key, or None when empty."""
        leaf = self._leftmost_leaf()
        return leaf.keys[0] if leaf.keys else None

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            self._touch(node)
            node = node.children[0]
        return node  # type: ignore[return-value]

    # -- insert ----------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Add one (key, value) pair; duplicate pairs are idempotent."""
        split = self._insert(self._root, key, value, rightmost=True)
        if split is not None:
            sep, right = split
            new_root = _Internal(next(self._ids))
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
            self._touch(new_root, write=True)

    def _insert(self, node: _Node, key: Any, value: Any,
                rightmost: bool = False) -> Optional[Tuple[Any, _Node]]:
        if isinstance(node, _Leaf):
            return self._insert_leaf(node, key, value, rightmost)
        self._touch(node)
        idx = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[idx], key, value,
                             rightmost and idx == len(node.children) - 1)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        self._touch(node, write=True)
        if len(node.keys) <= self.order:
            return None
        return self._split_internal(
            node, biased=rightmost and idx == len(node.keys) - 1)

    def _insert_leaf(self, leaf: _Leaf, key: Any, value: Any,
                     rightmost: bool = False) -> Optional[Tuple[Any, _Node]]:
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            if value not in leaf.values[idx]:
                leaf.values[idx].append(value)
                self._size += 1
            self._touch(leaf, write=True)
            return None
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, [value])
        self._size += 1
        self._touch(leaf, write=True)
        if len(leaf.keys) <= self.order:
            return None
        return self._split_leaf(
            leaf, biased=rightmost and idx == len(leaf.keys) - 1)

    def _split_leaf(self, leaf: _Leaf, biased: bool = False) -> Tuple[Any, _Node]:
        # A mid split of an append-frontier leaf (rightmost leaf, key
        # landing at the end) freezes every leaf at 50% occupancy under
        # monotonically increasing keys.  Bias the split instead: the
        # left leaf stays full, the new rightmost leaf starts nearly
        # empty and fills up as the append run continues.
        mid = len(leaf.keys) - 1 if biased else len(leaf.keys) // 2
        right = _Leaf(next(self._ids))
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        self._touch(right, write=True)
        return right.keys[0], right

    def _split_internal(self, node: _Internal, biased: bool = False) -> Tuple[Any, _Node]:
        # Same append-frontier bias one level up: keep the left node
        # full, start the new rightmost internal with a single child.
        mid = len(node.keys) - 1 if biased else len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal(next(self._ids))
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        self._touch(right, write=True)
        return sep, right

    # -- delete ----------------------------------------------------------

    def remove(self, key: Any, value: Any = None) -> int:
        """Remove one value under ``key`` (or all); returns pairs removed."""
        removed = self._remove(self._root, key, value)
        if isinstance(self._root, _Internal) and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._height -= 1
        self._size -= removed
        return removed

    def _min_keys(self) -> int:
        return self.order // 2

    def _remove(self, node: _Node, key: Any, value: Any) -> int:
        if isinstance(node, _Leaf):
            return self._remove_from_leaf(node, key, value)
        self._touch(node)
        idx = bisect.bisect_right(node.keys, key)
        child = node.children[idx]
        removed = self._remove(child, key, value)
        if removed and self._underflow(child):
            self._rebalance(node, idx)
        return removed

    def _remove_from_leaf(self, leaf: _Leaf, key: Any, value: Any) -> int:
        idx = bisect.bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            return 0
        if value is None:
            removed = len(leaf.values[idx])
        else:
            if value not in leaf.values[idx]:
                return 0
            leaf.values[idx].remove(value)
            removed = 1
        if value is None or not leaf.values[idx]:
            del leaf.keys[idx]
            del leaf.values[idx]
        self._touch(leaf, write=True)
        return removed

    def _underflow(self, node: _Node) -> bool:
        if node is self._root:
            return False
        if isinstance(node, _Leaf):
            return len(node.keys) < self._min_keys()
        return len(node.children) < self._min_keys() + 1

    def _rebalance(self, parent: _Internal, idx: int) -> None:
        child = parent.children[idx]
        left = parent.children[idx - 1] if idx > 0 else None
        right = parent.children[idx + 1] if idx + 1 < len(parent.children) else None
        if left is not None and self._can_lend(left):
            self._borrow_from_left(parent, idx)
        elif right is not None and self._can_lend(right):
            self._borrow_from_right(parent, idx)
        elif left is not None:
            self._merge(parent, idx - 1)
        elif right is not None:
            self._merge(parent, idx)
        self._touch(parent, write=True)

    def _can_lend(self, node: _Node) -> bool:
        if isinstance(node, _Leaf):
            return len(node.keys) > self._min_keys()
        return len(node.children) > self._min_keys() + 1

    def _borrow_from_left(self, parent: _Internal, idx: int) -> None:
        left, child = parent.children[idx - 1], parent.children[idx]
        if isinstance(child, _Leaf):
            assert isinstance(left, _Leaf)
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[idx - 1] = child.keys[0]
        else:
            assert isinstance(left, _Internal) and isinstance(child, _Internal)
            child.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        self._touch(left, write=True)
        self._touch(child, write=True)

    def _borrow_from_right(self, parent: _Internal, idx: int) -> None:
        child, right = parent.children[idx], parent.children[idx + 1]
        if isinstance(child, _Leaf):
            assert isinstance(right, _Leaf)
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            assert isinstance(right, _Internal) and isinstance(child, _Internal)
            child.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        self._touch(right, write=True)
        self._touch(child, write=True)

    def _merge(self, parent: _Internal, idx: int) -> None:
        """Merge children[idx+1] into children[idx]."""
        left, right = parent.children[idx], parent.children[idx + 1]
        if isinstance(left, _Leaf):
            assert isinstance(right, _Leaf)
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
        else:
            assert isinstance(left, _Internal) and isinstance(right, _Internal)
            left.keys.append(parent.keys[idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[idx]
        del parent.children[idx + 1]
        self._touch(left, write=True)

    # -- bulk loading -----------------------------------------------------

    @classmethod
    def bulk_load(cls, pairs, order: int = DEFAULT_ORDER,
                  page_hook: PageHook = None) -> "ListBackedBPlusTree":
        """Build a tree from (key, value) pairs in one bottom-up pass.

        Much faster than repeated inserts for restore/adoption paths
        (sorted leaf runs are packed ~full, then internal levels built on
        top).  Input need not be sorted or unique; duplicate (key, value)
        pairs collapse.
        """
        tree = cls(order=order, page_hook=page_hook)
        grouped: dict = {}
        for key, value in pairs:
            bucket = grouped.setdefault(key, [])
            if value not in bucket:
                bucket.append(value)
        if not grouped:
            return tree
        sorted_keys = sorted(grouped)
        fill = max(2, (order * 2) // 3)  # pack leaves ~2/3 full
        min_keys = order // 2
        leaves: List[_Leaf] = []
        for i in range(0, len(sorted_keys), fill):
            leaf = _Leaf(next(tree._ids))
            leaf.keys = sorted_keys[i:i + fill]
            leaf.values = [grouped[k] for k in leaf.keys]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        # The last leaf may be under-full: even it out with its neighbor
        # so the min-fill invariant holds for later deletes.
        if len(leaves) > 1 and len(leaves[-1].keys) < min_keys:
            prev, last = leaves[-2], leaves[-1]
            merged_keys = prev.keys + last.keys
            merged_values = prev.values + last.values
            if len(merged_keys) <= order:
                # Fold the runt into its neighbor entirely.
                prev.keys, prev.values = merged_keys, merged_values
                prev.next = last.next
                leaves.pop()
            else:
                half = len(merged_keys) // 2
                prev.keys, last.keys = merged_keys[:half], merged_keys[half:]
                prev.values, last.values = merged_values[:half], merged_values[half:]
        tree._size = sum(len(v) for v in grouped.values())
        level: List[_Node] = list(leaves)
        height = 1
        min_children = min_keys + 1
        while len(level) > 1:
            parents: List[_Internal] = []
            for i in range(0, len(level), fill + 1):
                node = _Internal(next(tree._ids))
                node.children = level[i:i + fill + 1]
                node.keys = [tree._leftmost_key_of(c) for c in node.children[1:]]
                parents.append(node)
            # Even out an under-full last parent the same way.
            if len(parents) > 1 and len(parents[-1].children) < min_children:
                prev, last = parents[-2], parents[-1]
                merged = prev.children + last.children
                if len(merged) <= order + 1:
                    prev.children = merged
                    prev.keys = [tree._leftmost_key_of(c) for c in merged[1:]]
                    parents.pop()
                else:
                    half = len(merged) // 2
                    prev.children, last.children = merged[:half], merged[half:]
                    prev.keys = [tree._leftmost_key_of(c) for c in prev.children[1:]]
                    last.keys = [tree._leftmost_key_of(c) for c in last.children[1:]]
            level = list(parents)
            height += 1
        tree._root = level[0]
        tree._height = height
        return tree

    def _leftmost_key_of(self, node: _Node) -> Any:
        while isinstance(node, _Internal):
            node = node.children[0]
        return node.keys[0]

    def _separators(self, children: List[_Node]) -> List[Any]:
        """The separator keys over ``children`` (siblings, so all leaves
        or all internal): each child's leftmost key but the first's."""
        if isinstance(children[0], _Leaf):
            return [child.keys[0] for child in children[1:]]
        return [self._leftmost_key_of(child) for child in children[1:]]

    # -- bulk insert (group commit) ----------------------------------------

    def bulk_insert(self, pairs) -> int:
        """Merge a sorted run of (key, value) pairs into the live tree.

        The group-commit counterpart of :meth:`bulk_load`: instead of one
        tree descent per pair, the input is sorted once, partitioned down
        the tree, and merged leaf-at-a-time; overflowing nodes split
        multi-way into ~2/3-full chunks (same fill/runt policy as
        ``bulk_load``).  Returns the number of pairs actually added
        (duplicates are idempotent, as with :meth:`insert`).

        The work is proportional to where the batch lands, not to the
        tree: each node bisects its separators for the children the batch
        reaches, and each leaf reached bisects its keys for the new ones
        (bisection needs totally ordered keys, as every lookup here does:
        a NaN key has no place in the tree).  Every separator on the
        descent is re-derived from its child's leftmost key, which also
        refreshes separators a delete left stale.
        """
        grouped: dict = {}
        for key, value in pairs:
            bucket = grouped.setdefault(key, [])
            if value not in bucket:
                bucket.append(value)
        if not grouped:
            return 0
        items = sorted(grouped.items())
        added_before = self._size
        nodes = self._bulk_merge(self._root, items)
        fill = max(2, (self.order * 2) // 3)
        min_children = self._min_keys() + 1
        while len(nodes) > 1:
            parents: List[_Internal] = []
            for i in range(0, len(nodes), fill + 1):
                parent = _Internal(next(self._ids))
                parent.children = nodes[i:i + fill + 1]
                parent.keys = self._separators(parent.children)
                self._touch(parent, write=True)
                parents.append(parent)
            if len(parents) > 1 and len(parents[-1].children) < min_children:
                prev, last = parents[-2], parents[-1]
                merged = prev.children + last.children
                if len(merged) <= self.order + 1:
                    prev.children = merged
                    prev.keys = self._separators(merged)
                    parents.pop()
                else:
                    half = len(merged) // 2
                    prev.children, last.children = merged[:half], merged[half:]
                    prev.keys = self._separators(prev.children)
                    last.keys = self._separators(last.children)
            nodes = list(parents)
            self._height += 1
        self._root = nodes[0]
        return self._size - added_before

    def _bulk_merge(self, node: _Node, items: List[Tuple[Any, List[Any]]]) -> List[_Node]:
        """Merge sorted ``(key, bucket)`` items into ``node``'s subtree.

        Returns the node(s) replacing ``node`` at its level — the first
        entry is always ``node`` itself (so an untouched parent pointer
        stays valid); extras are freshly split right siblings, each at
        least min-full thanks to the runt fixup.

        A run of items goes to the first child, at or after the previous
        run's, whose separator is above the run's first key (the last
        child takes the rest) — found by bisection over the separators and
        the items, so children the batch misses are not visited.
        """
        if isinstance(node, _Leaf):
            return self._bulk_merge_leaf(node, items)
        self._touch(node)
        seps, children = node.keys, node.children
        # The items' keys as their own list: bisect's ``key=`` needs 3.10.
        keys = [key for key, _ in items]
        out_children: List[_Node] = []
        ci = i = 0
        while i < len(items):
            c = bisect.bisect_right(seps, keys[i], ci)
            out_children.extend(children[ci:c])
            j = (len(items) if c == len(seps)
                 else bisect.bisect_left(keys, seps[c], i))
            out_children.extend(self._bulk_merge(children[c], items[i:j]))
            ci, i = c + 1, j
        out_children.extend(children[ci:])
        node.children = out_children
        node.keys = self._separators(out_children)
        self._touch(node, write=True)
        if len(node.children) <= self.order + 1:
            return [node]
        # Multi-way internal split, ~2/3-full chunks with runt fixup.
        fill = max(2, (self.order * 2) // 3)
        min_children = self._min_keys() + 1
        chunks = [node.children[i:i + fill + 1]
                  for i in range(0, len(node.children), fill + 1)]
        if len(chunks) > 1 and len(chunks[-1]) < min_children:
            merged = chunks[-2] + chunks[-1]
            if len(merged) <= self.order + 1:
                chunks[-2:] = [merged]
            else:
                half = len(merged) // 2
                chunks[-2:] = [merged[:half], merged[half:]]
        node.children = chunks[0]
        node.keys = self._separators(node.children)
        out: List[_Node] = [node]
        for chunk in chunks[1:]:
            sibling = _Internal(next(self._ids))
            sibling.children = chunk
            sibling.keys = self._separators(chunk)
            self._touch(sibling, write=True)
            out.append(sibling)
        return out

    def _bulk_merge_leaf(self, leaf: _Leaf, items: List[Tuple[Any, List[Any]]]) -> List[_Node]:
        """Merge sorted ``(key, bucket)`` items into copies of the leaf's
        lists: a key the leaf holds takes the bucket's new values, any
        other key is inserted where a bisection puts it."""
        merged_keys, merged_values = list(leaf.keys), list(leaf.values)
        at = 0
        for key, new_values in items:
            at = bisect.bisect_left(merged_keys, key, at)
            if at < len(merged_keys) and not key < merged_keys[at]:
                bucket = merged_values[at]
                for v in new_values:
                    if v not in bucket:
                        bucket.append(v)
                        self._size += 1
            else:
                merged_keys.insert(at, key)
                merged_values.insert(at, list(new_values))
                self._size += len(new_values)
            at += 1
        if len(merged_keys) <= self.order:
            leaf.keys, leaf.values = merged_keys, merged_values
            self._touch(leaf, write=True)
            return [leaf]
        # Multi-way leaf split, same fill/runt policy as bulk_load.
        fill = max(2, (self.order * 2) // 3)
        min_keys = self._min_keys()
        chunks = [(merged_keys[i:i + fill], merged_values[i:i + fill])
                  for i in range(0, len(merged_keys), fill)]
        if len(chunks) > 1 and len(chunks[-1][0]) < min_keys:
            ck = chunks[-2][0] + chunks[-1][0]
            cv = chunks[-2][1] + chunks[-1][1]
            if len(ck) <= self.order:
                chunks[-2:] = [(ck, cv)]
            else:
                half = len(ck) // 2
                chunks[-2:] = [(ck[:half], cv[:half]), (ck[half:], cv[half:])]
        old_next = leaf.next
        leaf.keys, leaf.values = chunks[0]
        self._touch(leaf, write=True)
        out: List[_Node] = [leaf]
        prev = leaf
        for ck, cv in chunks[1:]:
            sibling = _Leaf(next(self._ids))
            sibling.keys, sibling.values = ck, cv
            prev.next = sibling
            prev = sibling
            self._touch(sibling, write=True)
            out.append(sibling)
        prev.next = old_next
        return out

    # -- validation (used by tests) ---------------------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on violation.

        Nodes on the rightmost spine are append frontiers — biased splits
        leave them under-full on purpose, so the min-fill bound applies
        to every *other* node.
        """
        self._check_node(self._root, depth=1, is_root=True, rightmost=True)
        # Leaf chain must be sorted and cover all keys.
        keys = [k for k, _ in self.items()]
        assert keys == sorted(keys), "leaf chain out of order"

    def _check_node(self, node: _Node, depth: int, is_root: bool,
                    rightmost: bool = False) -> int:
        assert node.keys == sorted(node.keys), "node keys out of order"
        if isinstance(node, _Leaf):
            assert depth == self._height, "leaf at wrong depth"
            if not is_root:
                if rightmost:
                    assert len(node.keys) >= 1, "empty frontier leaf"
                else:
                    assert len(node.keys) >= self._min_keys(), "leaf underflow"
            assert len(node.keys) == len(node.values)
            return depth
        assert isinstance(node, _Internal)
        assert len(node.children) == len(node.keys) + 1
        if not is_root:
            if rightmost:
                assert len(node.children) >= 1, "empty frontier internal"
            else:
                assert len(node.children) >= self._min_keys() + 1, "internal underflow"
        else:
            assert len(node.children) >= 2, "root internal with one child"
        last = len(node.children) - 1
        depths = {self._check_node(c, depth + 1, False,
                                   rightmost and i == last)
                  for i, c in enumerate(node.children)}
        assert len(depths) == 1, "uneven leaf depth"
        return depths.pop()


RANGE_BOUNDS = st.one_of(st.none(), TREE_KEYS)
REFERENCE_OPS = st.one_of(
    TREE_OPS,
    st.tuples(st.just("get"), TREE_KEYS),
    st.tuples(st.just("range"), RANGE_BOUNDS, RANGE_BOUNDS, st.booleans(),
              st.booleans()),
    st.tuples(st.just("range_values"), RANGE_BOUNDS, RANGE_BOUNDS,
              st.booleans(), st.booleans()),
    st.tuples(st.just("items")),
)


def _answer(result):
    """A generator's pairs as a list, any other result as it is."""
    return list(result) if hasattr(result, "__next__") else result


@settings(max_examples=machine_examples(60), derandomize=True, deadline=None)
@example(4, [("bulk_insert", [(0, v) for v in range(30)]),
             ("remove", 0, 29), ("remove", 0, 0), ("remove", 0),
             ("range_values", None, None, True, True)])
@given(st.integers(4, 16), st.lists(REFERENCE_OPS, min_size=1, max_size=60))
def test_dict_buckets_match_the_list_backed_reference(order, ops):
    touched, ref_touched = [], []
    tree = BPlusTree(order=order,
                     page_hook=lambda n, w: touched.append((n, w)))
    ref = ListBackedBPlusTree(order=order,
                              page_hook=lambda n, w: ref_touched.append((n, w)))
    for op, *args in ops:
        assert _answer(getattr(tree, op)(*args)) \
            == _answer(getattr(ref, op)(*args)), op
        assert len(tree) == len(ref), op
        assert shape(tree) == shape(ref), op
        assert touched == ref_touched, op
        tree.check_invariants()
        ref.check_invariants()
