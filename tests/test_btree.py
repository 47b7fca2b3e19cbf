"""B+tree: unit tests plus property tests against a dict-of-lists oracle."""

import random
from typing import Any, List, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.indexstructures.btree import BPlusTree, _Internal, _Leaf, _Node

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


# -- differential: the bisecting bulk merge against the walking one ----------------
#
# The group-commit merge this module's class replaced — a walk over every
# child of each node it enters and over every key of each leaf — kept
# verbatim as the reference.


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

    def _bulk_merge(self, node: _Node, items: List[Tuple[Any, List[Any]]]) -> List[_Node]:
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

    def _bulk_merge_leaf(self, leaf: _Leaf, items: List[Tuple[Any, List[Any]]]) -> List[_Node]:
        merged_keys: List[Any] = []
        merged_values: List[List[Any]] = []
        i = j = 0
        keys, values = leaf.keys, leaf.values
        while i < len(keys) and j < len(items):
            if keys[i] < items[j][0]:
                merged_keys.append(keys[i])
                merged_values.append(values[i])
                i += 1
            elif items[j][0] < keys[i]:
                merged_keys.append(items[j][0])
                merged_values.append(list(items[j][1]))
                self._size += len(items[j][1])
                j += 1
            else:
                bucket = values[i]
                for v in items[j][1]:
                    if v not in bucket:
                        bucket.append(v)
                        self._size += 1
                merged_keys.append(keys[i])
                merged_values.append(bucket)
                i += 1
                j += 1
        merged_keys.extend(keys[i:])
        merged_values.extend(values[i:])
        for k, bucket in items[j:]:
            merged_keys.append(k)
            merged_values.append(list(bucket))
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
