"""B+tree multimap.

Classic B+tree: values live only in leaves, leaves form a sorted linked
list for range scans, internal nodes hold separator keys.  Deletion
rebalances by borrowing from a sibling or merging, so the height invariant
holds under any workload — hypothesis tests in
``tests/indexstructures/test_btree.py`` check this against an oracle.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Any, Iterator, List, Optional, Tuple

from repro.indexstructures.base import Index, IndexKind, PageHook

DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("node_id", "keys")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.keys: List[Any] = []


class _Leaf(_Node):
    __slots__ = ("values", "next")

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.values: List[List[Any]] = []
        self.next: Optional[_Leaf] = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.children: List[_Node] = []


class BPlusTree(Index):
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
                  page_hook: PageHook = None) -> "BPlusTree":
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

    # -- bulk insert (group commit) ----------------------------------------

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
