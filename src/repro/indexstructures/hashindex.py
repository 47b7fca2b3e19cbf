"""Extendible hash index.

A directory of 2^d pointers to buckets, each bucket holding at most
``bucket_capacity`` distinct keys.  A full bucket splits by local depth;
when local depth would exceed global depth the directory doubles.  This is
the disk-friendly hash organisation database systems used in the paper's
era, and it gives the page hook a natural unit (one bucket = one page).

A key's values are an insertion-ordered dict (value -> None): membership,
insert and remove are O(1) however many files share a keyword, and
iteration order is the order values arrived in.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Dict, Iterator, List, Tuple

from repro.indexstructures.base import Index, IndexKind, PageHook

DEFAULT_BUCKET_CAPACITY = 32
_HASH_BITS = 64
_HASH_MASK = (1 << _HASH_BITS) - 1
# Distinct str keys whose hash is memoised (path tokens: a partition's
# files share most of theirs, so a commit re-hashes the same few).
_STR_HASH_MEMO = 1 << 16
# Integral floats inside this range hash as the int they equal.
_INT_KEY_LIMIT = 1 << 127


def _fnv1a(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _HASH_MASK
    return h


@functools.lru_cache(maxsize=_STR_HASH_MEMO)
def _str_hash(key: str) -> int:
    return _fnv1a(key.encode("utf-8"))


def _stable_hash(key: Any) -> int:
    """Deterministic across runs (unlike str hash with PYTHONHASHSEED).

    Keys the bucket dict treats as one (``1 == 1.0 == True``,
    ``0.0 == -0.0``) hash alike: bools and integral floats take the int
    encoding.
    """
    if isinstance(key, str):
        return _str_hash(key)
    if isinstance(key, bytes):
        return _fnv1a(key)
    if isinstance(key, float) and key.is_integer() \
            and -_INT_KEY_LIMIT <= key < _INT_KEY_LIMIT:
        key = int(key)
    if isinstance(key, int):
        return _fnv1a(key.to_bytes(16, "little", signed=True))
    if isinstance(key, float):
        return _fnv1a(repr(key).encode("ascii"))
    if isinstance(key, tuple):
        h = 0x345678
        for item in key:
            h = (h * 1000003) ^ _stable_hash(item)
        return h & _HASH_MASK
    raise TypeError(f"unhashable index key type: {type(key).__name__}")


class _Bucket:
    __slots__ = ("bucket_id", "local_depth", "entries")

    def __init__(self, bucket_id: int, local_depth: int) -> None:
        self.bucket_id = bucket_id
        self.local_depth = local_depth
        self.entries: Dict[Any, Dict[Any, None]] = {}


class ExtendibleHashIndex(Index):
    """Extendible hashing multimap for exact-match lookups."""

    kind = IndexKind.HASH

    def __init__(self, bucket_capacity: int = DEFAULT_BUCKET_CAPACITY,
                 page_hook: PageHook = None) -> None:
        if bucket_capacity < 1:
            raise ValueError(f"bucket_capacity must be >= 1: {bucket_capacity}")
        self.bucket_capacity = bucket_capacity
        self._page_hook = page_hook
        self._ids = itertools.count()
        self.global_depth = 1
        b0 = _Bucket(next(self._ids), 1)
        b1 = _Bucket(next(self._ids), 1)
        self._directory: List[_Bucket] = [b0, b1]
        self._size = 0

    # -- internals ---------------------------------------------------------

    def _touch(self, bucket: _Bucket, write: bool = False) -> None:
        if self._page_hook is not None:
            self._page_hook(bucket.bucket_id, write)

    def _bucket_for(self, key: Any) -> _Bucket:
        slot = _stable_hash(key) & ((1 << self.global_depth) - 1)
        bucket = self._directory[slot]
        self._touch(bucket)
        return bucket

    def _split(self, bucket: _Bucket) -> None:
        if bucket.local_depth == self.global_depth:
            self._directory = self._directory + list(self._directory)
            self.global_depth += 1
        new_depth = bucket.local_depth + 1
        sibling = _Bucket(next(self._ids), new_depth)
        bucket.local_depth = new_depth
        high_bit = 1 << (new_depth - 1)
        # Repoint directory slots whose new bit is set.
        for slot, b in enumerate(self._directory):
            if b is bucket and slot & high_bit:
                self._directory[slot] = sibling
        # Redistribute entries.
        stay: Dict[Any, Dict[Any, None]] = {}
        for key, values in bucket.entries.items():
            if _stable_hash(key) & high_bit:
                sibling.entries[key] = values
            else:
                stay[key] = values
        bucket.entries = stay
        self._touch(bucket, write=True)
        self._touch(sibling, write=True)

    # -- Index API ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def bucket_count(self) -> int:
        """Number of distinct buckets behind the directory."""
        return len({id(b) for b in self._directory})

    def insert(self, key: Any, value: Any) -> None:
        """Add one (key, value) pair, splitting buckets as needed."""
        self._place(key, value)

    def _place(self, key: Any, value: Any) -> _Bucket:
        """:meth:`insert`, returning the bucket that holds ``key``."""
        for _ in range(_HASH_BITS):
            bucket = self._bucket_for(key)
            values = bucket.entries.get(key)
            if values is not None:
                if value not in values:
                    values[value] = None
                    self._size += 1
                self._touch(bucket, write=True)
                return bucket
            if len(bucket.entries) < self.bucket_capacity:
                bucket.entries[key] = {value: None}
                self._size += 1
                self._touch(bucket, write=True)
                return bucket
            self._split(bucket)
        raise RuntimeError("extendible hash split did not converge")

    def bulk_insert(self, pairs: Iterator[Tuple[Any, Any]]) -> int:
        """Insert many (key, value) pairs, grouped by key.

        The group-commit path for keyword postings: pairs sharing a key
        (one keyword, many files) resolve the bucket once instead of
        re-walking the directory per pair.  Returns pairs added.  The
        page touches are a per-key insert's, then a read of the key's
        bucket for the rest of its values.
        """
        grouped: Dict[Any, Dict[Any, None]] = {}
        for key, value in pairs:
            group = grouped.get(key)
            if group is None:
                grouped[key] = {value: None}
            else:
                group[value] = None
        added = 0
        for key, new_values in grouped.items():
            before = self._size
            bucket = self._place(key, next(iter(new_values)))  # may split
            self._touch(bucket)
            values = bucket.entries[key]
            held = len(values)
            values.update(new_values)  # appends only the values not held
            self._size += len(values) - held
            added += self._size - before
        return added

    def remove(self, key: Any, value: Any = None) -> int:
        """Remove one value under ``key`` (or all); returns pairs removed."""
        bucket = self._bucket_for(key)
        values = bucket.entries.get(key)
        if values is None:
            return 0
        if value is None:
            removed = len(values)
            del bucket.entries[key]
        else:
            if value not in values:
                return 0
            del values[value]
            removed = 1
            if not values:
                del bucket.entries[key]
        self._size -= removed
        self._touch(bucket, write=True)
        return removed

    def get(self, key: Any) -> List[Any]:
        """All values stored under exactly ``key`` ([] if absent)."""
        bucket = self._bucket_for(key)
        return list(bucket.entries.get(key, ()))

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Every (key, value) pair (arbitrary order)."""
        seen = set()
        for bucket in self._directory:
            if id(bucket) in seen:
                continue
            seen.add(id(bucket))
            for key, values in bucket.entries.items():
                for value in values:
                    yield key, value

    # -- validation ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert directory/bucket invariants; raises AssertionError."""
        assert len(self._directory) == 1 << self.global_depth
        seen = {}
        for slot, bucket in enumerate(self._directory):
            assert bucket.local_depth <= self.global_depth
            # All slots pointing to one bucket agree on the low local_depth bits.
            low = slot & ((1 << bucket.local_depth) - 1)
            if id(bucket) in seen:
                assert seen[id(bucket)] == low, "inconsistent directory pointers"
            seen[id(bucket)] = low
            for key in bucket.entries:
                h = _stable_hash(key)
                assert h & ((1 << bucket.local_depth) - 1) == low, "key in wrong bucket"
        pairs = 0
        for bucket in {id(b): b for b in self._directory}.values():
            for values in bucket.entries.values():
                assert values, "key with an empty bucket"
                pairs += len(values)
        assert pairs == self._size, "size is not the stored pair count"
