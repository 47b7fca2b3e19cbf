"""Extendible hash index: directory/bucket invariants and oracle tests."""

import itertools
import time
from typing import Any, Dict, Iterator, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.index_node import AcgReplica
from repro.cluster.messages import IndexUpdate
from repro.indexstructures import BPlusTree, IndexKind, KDTreeIndex
from repro.indexstructures.base import Index, PageHook
from repro.indexstructures.hashindex import (_HASH_BITS, _HASH_MASK,
                                             DEFAULT_BUCKET_CAPACITY,
                                             ExtendibleHashIndex, _stable_hash)
from repro.query.executor import AttributeStore, execute
from repro.query.parser import parse_query
from repro.query.planner import IndexSpec, plan_query
from repro.sim.clock import SimClock
from repro.sim.machine import Machine

from tests.conftest import machine_examples


def test_empty_index():
    index = ExtendibleHashIndex()
    assert len(index) == 0
    assert index.get("missing") == []


def test_insert_get():
    index = ExtendibleHashIndex()
    index.insert("key", 1)
    assert index.get("key") == [1]


def test_multimap_accumulates():
    index = ExtendibleHashIndex()
    index.insert("k", 1)
    index.insert("k", 2)
    assert sorted(index.get("k")) == [1, 2]
    assert len(index) == 2


def test_duplicate_pair_idempotent():
    index = ExtendibleHashIndex()
    index.insert("k", 1)
    index.insert("k", 1)
    assert len(index) == 1


def test_bucket_capacity_validation():
    with pytest.raises(ValueError):
        ExtendibleHashIndex(bucket_capacity=0)


def test_splits_preserve_contents():
    index = ExtendibleHashIndex(bucket_capacity=2)
    for i in range(200):
        index.insert(f"key{i}", i)
    index.check_invariants()
    for i in range(200):
        assert index.get(f"key{i}") == [i]
    assert index.global_depth > 1


def test_remove_value():
    index = ExtendibleHashIndex()
    index.insert("k", 1)
    index.insert("k", 2)
    assert index.remove("k", 1) == 1
    assert index.get("k") == [2]


def test_remove_key_entirely():
    index = ExtendibleHashIndex()
    index.insert("k", 1)
    index.insert("k", 2)
    assert index.remove("k") == 2
    assert "k" not in index


def test_remove_missing():
    index = ExtendibleHashIndex()
    assert index.remove("ghost") == 0
    index.insert("k", 1)
    assert index.remove("k", 99) == 0


def test_items_cover_everything():
    index = ExtendibleHashIndex(bucket_capacity=3)
    pairs = {(f"k{i}", i) for i in range(100)}
    for k, v in pairs:
        index.insert(k, v)
    assert set(index.items()) == pairs


def test_mixed_key_types_rejected_only_for_unhashable():
    index = ExtendibleHashIndex()
    index.insert(5, "int")
    index.insert(5.5, "float")
    index.insert(("a", 1), "tuple")
    with pytest.raises(TypeError):
        index.insert(["list"], "bad")


def test_stable_hash_is_deterministic():
    assert _stable_hash("hello") == _stable_hash("hello")
    assert _stable_hash(42) == _stable_hash(42)
    assert _stable_hash(("a", 1)) == _stable_hash(("a", 1))


def test_page_hook_called():
    touched = []
    index = ExtendibleHashIndex(bucket_capacity=2,
                                page_hook=lambda b, w: touched.append((b, w)))
    for i in range(20):
        index.insert(i, i)
    assert touched


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=8), st.integers(0, 10)), max_size=300),
       st.integers(1, 8))
def test_property_matches_dict_oracle(pairs, capacity):
    index = ExtendibleHashIndex(bucket_capacity=capacity)
    oracle = {}
    for key, value in pairs:
        index.insert(key, value)
        oracle.setdefault(key, set()).add(value)
    index.check_invariants()
    for key, values in oracle.items():
        assert set(index.get(key)) == values
    assert len(index) == sum(len(v) for v in oracle.values())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 50)), max_size=300))
def test_property_insert_delete_oracle(ops):
    index = ExtendibleHashIndex(bucket_capacity=2)
    oracle = {}
    for is_insert, key in ops:
        if is_insert:
            index.insert(key, key)
            oracle.setdefault(key, set()).add(key)
        else:
            assert index.remove(key) == len(oracle.pop(key, set()))
    index.check_invariants()
    assert set(index.items()) == {(k, v) for k, vs in oracle.items() for v in vs}


# -- equal keys share a bucket ---------------------------------------------------


def test_equal_keys_hash_alike():
    """The bucket dict treats ``1``, ``1.0`` and ``True`` as one key, and
    ``0.0`` as ``-0.0``; their hashes must agree or a lookup goes to the
    wrong bucket."""
    for a, b in ((1, 1.0), (1, True), (0, False), (0, 0.0), (0.0, -0.0),
                 (1_700_000_000, 1_700_000_000.0), (-3, -3.0),
                 ((1, "a"), (1.0, "a"))):
        assert a == b
        assert _stable_hash(a) == _stable_hash(b), (a, b)


def test_an_integral_float_key_is_found_by_the_int_it_equals():
    index = ExtendibleHashIndex(bucket_capacity=2)
    stamps = [1_700_000_000.0 + 60 * i for i in range(64)]
    for i, stamp in enumerate(stamps):
        index.insert(stamp, i)
    assert index.global_depth > 3
    for i, stamp in enumerate(stamps):
        assert index.get(int(stamp)) == [i]
        assert index.remove(int(stamp), i) == 1
    assert len(index) == 0
    index.check_invariants()


def test_hash_equality_on_a_float_attribute_finds_what_a_scan_finds():
    """The parser reads ``mtime==1700000060`` as an int; the files carry
    float mtimes.  The hash access path must answer like a scan."""
    store = AttributeStore()
    by_mtime = ExtendibleHashIndex(bucket_capacity=4)
    for fid in range(100):
        mtime = 1_700_000_000.0 + 60 * (fid % 25)
        store.put(fid, {"mtime": mtime}, path=f"/d/f{fid}")
        by_mtime.insert(mtime, fid)
    specs = [IndexSpec("by_mtime", IndexKind.HASH, ("mtime",))]
    for minute in range(25):
        pred = parse_query(f"mtime=={1_700_000_000 + 60 * minute}")
        plan = plan_query(pred, specs, now=0.0)
        assert plan.access == "hash_eq"
        scan = execute(plan_query(pred, [], now=0.0), pred, {}, store, now=0.0)
        assert len(scan) == 4
        assert execute(plan, pred, {"by_mtime": by_mtime}, store,
                       now=0.0) == scan


def test_str_int_and_other_hashes_are_unchanged():
    """Keyword indexes (str keys) and fig02's int keys place exactly as
    they did under the list-backed reference's hash."""
    keys = ["", "a", "mozilla", "prefs", "js", "ünï", 0, 1, -1, 7, 2**40,
            -(2**100), 0.5, -2.25, float("inf"), 1e300, b"raw",
            ("a", 1, 0.5)]
    for key in keys:
        assert _stable_hash(key) == reference_stable_hash(key), key
    for i in range(2000):
        assert _stable_hash(f"tok{i}") == reference_stable_hash(f"tok{i}")
        assert _stable_hash(i * 7919) == reference_stable_hash(i * 7919)


# -- cost in proportion to the change ----------------------------------------------


def test_one_hot_key_costs_constant_time_per_update():
    """20 000 files under one keyword: fill, refresh each, remove each.
    List-backed postings scan the list per update (seconds); this must
    stay far inside one CPU-second."""
    index = ExtendibleHashIndex()
    n = 20_000
    start = time.process_time()
    assert index.bulk_insert(("hot", v) for v in range(n)) == n
    for v in range(n):
        index.insert("hot", v)
    assert len(index) == n
    for v in range(n):
        assert index.remove("hot", v) == 1
    elapsed = time.process_time() - start
    assert len(index) == 0 and index.get("hot") == []
    assert elapsed < 1.0, f"{elapsed:.2f} CPU-s"


def test_committing_a_new_file_removes_nothing(monkeypatch):
    """A first index of a file has no old entries to clear: the commit
    goes straight to the bulk insert.  A rewrite still clears them."""
    replica = AcgReplica(1, Machine(SimClock()))
    for spec in (IndexSpec("by_size", IndexKind.BTREE, ("size",)),
                 IndexSpec("by_kw", IndexKind.HASH, ("keyword",)),
                 IndexSpec("by_owner", IndexKind.HASH, ("owner",)),
                 IndexSpec("kd", IndexKind.KDTREE, ("size", "mtime"))):
        replica.ensure_index(spec)
    removed = []
    for cls in (ExtendibleHashIndex, BPlusTree, KDTreeIndex):
        def counted(self, *args, _original=cls.remove, **kwargs):
            removed.append(type(self).__name__)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "remove", counted)
    replica.apply_batch([
        IndexUpdate.upsert(i, {"size": i, "mtime": float(i), "owner": "ann"},
                           path=f"/d/f{i}")
        for i in range(8)])
    assert removed == []
    assert replica.indexes["by_kw"].get("d") == list(range(8))
    replica.apply_batch([IndexUpdate.upsert(
        3, {"size": 30, "mtime": 3.0, "owner": "bob"}, path="/d/g3")])
    assert sorted(set(removed)) == ["BPlusTree", "ExtendibleHashIndex",
                                    "KDTreeIndex"]
    assert replica.indexes["by_kw"].get("f3") == []
    assert replica.indexes["by_kw"].get("g3") == [3]
    assert replica.indexes["by_owner"].get("bob") == [3]
    assert 3 not in replica.indexes["by_owner"].get("ann")


# -- differential: dict postings against the list-backed reference -------------------
#
# The list-backed index this module's class replaced, kept verbatim (renamed
# so it does not shadow the real one) as the reference.

def reference_stable_hash(key: Any) -> int:
    """Deterministic across runs (unlike str hash with PYTHONHASHSEED)."""
    if isinstance(key, bytes):
        data = key
    elif isinstance(key, str):
        data = key.encode("utf-8")
    elif isinstance(key, bool):
        data = b"\x01" if key else b"\x00"
    elif isinstance(key, int):
        data = key.to_bytes(16, "little", signed=True)
    elif isinstance(key, float):
        data = repr(key).encode("ascii")
    elif isinstance(key, tuple):
        h = 0x345678
        for item in key:
            h = (h * 1000003) ^ reference_stable_hash(item)
        return h & _HASH_MASK
    else:
        raise TypeError(f"unhashable index key type: {type(key).__name__}")
    # FNV-1a
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _HASH_MASK
    return h


class ListBucket:
    __slots__ = ("bucket_id", "local_depth", "entries")

    def __init__(self, bucket_id: int, local_depth: int) -> None:
        self.bucket_id = bucket_id
        self.local_depth = local_depth
        self.entries: Dict[Any, List[Any]] = {}


class ListBackedHashIndex(Index):
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
        b0 = ListBucket(next(self._ids), 1)
        b1 = ListBucket(next(self._ids), 1)
        self._directory: List[ListBucket] = [b0, b1]
        self._size = 0

    # -- internals ---------------------------------------------------------

    def _touch(self, bucket: ListBucket, write: bool = False) -> None:
        if self._page_hook is not None:
            self._page_hook(bucket.bucket_id, write)

    def _bucket_for(self, key: Any) -> ListBucket:
        slot = reference_stable_hash(key) & ((1 << self.global_depth) - 1)
        bucket = self._directory[slot]
        self._touch(bucket)
        return bucket

    def _split(self, bucket: ListBucket) -> None:
        if bucket.local_depth == self.global_depth:
            self._directory = self._directory + list(self._directory)
            self.global_depth += 1
        new_depth = bucket.local_depth + 1
        sibling = ListBucket(next(self._ids), new_depth)
        bucket.local_depth = new_depth
        high_bit = 1 << (new_depth - 1)
        # Repoint directory slots whose new bit is set.
        for slot, b in enumerate(self._directory):
            if b is bucket and slot & high_bit:
                self._directory[slot] = sibling
        # Redistribute entries.
        stay: Dict[Any, List[Any]] = {}
        for key, values in bucket.entries.items():
            if reference_stable_hash(key) & high_bit:
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
        for _ in range(_HASH_BITS):
            bucket = self._bucket_for(key)
            values = bucket.entries.get(key)
            if values is not None:
                if value not in values:
                    values.append(value)
                    self._size += 1
                self._touch(bucket, write=True)
                return
            if len(bucket.entries) < self.bucket_capacity:
                bucket.entries[key] = [value]
                self._size += 1
                self._touch(bucket, write=True)
                return
            self._split(bucket)
        raise RuntimeError("extendible hash split did not converge")

    def bulk_insert(self, pairs: Iterator[Tuple[Any, Any]]) -> int:
        """Insert many (key, value) pairs, grouped by key.

        The group-commit path for keyword postings: pairs sharing a key
        (one keyword, many files) resolve the bucket once instead of
        re-walking the directory per pair.  Returns pairs added.
        """
        grouped: dict = {}
        for key, value in pairs:
            bucket = grouped.setdefault(key, [])
            if value not in bucket:
                bucket.append(value)
        added = 0
        for key, new_values in grouped.items():
            first = new_values[0]
            before = self._size
            self.insert(key, first)  # may split; re-resolves the bucket
            bucket = self._bucket_for(key)
            values = bucket.entries[key]
            for value in new_values[1:]:
                if value not in values:
                    values.append(value)
                    self._size += 1
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
            values.remove(value)
            removed = 1
            if not values:
                del bucket.entries[key]
        self._size -= removed
        self._touch(bucket, write=True)
        return removed

    def get(self, key: Any) -> List[Any]:
        """All values stored under exactly ``key`` ([] if absent)."""
        bucket = self._bucket_for(key)
        return list(bucket.entries.get(key, []))

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
                h = reference_stable_hash(key)
                assert h & ((1 << bucket.local_depth) - 1) == low, "key in wrong bucket"


DIFFERENTIAL = settings(max_examples=machine_examples(50), derandomize=True,
                        deadline=None)
# Only keys both hashes place alike (no bools, no integral floats).
KEYS = st.sampled_from(["a", "js", "mozilla", 0, 7, 2**40, -2.25, ("a", 1),
                        b"raw"])
VALUES = st.integers(0, 2)
OPS = st.one_of(
    st.tuples(st.just("insert"), KEYS, VALUES),
    st.tuples(st.just("bulk_insert"),
              st.lists(st.tuples(KEYS, VALUES), max_size=12)),
    st.tuples(st.just("remove"), KEYS, VALUES),
    st.tuples(st.just("remove"), KEYS),
    st.tuples(st.just("get"), KEYS),
)


@DIFFERENTIAL
@given(st.integers(2, 4), st.lists(OPS, min_size=20, max_size=80))
def test_dict_postings_match_the_list_backed_reference(capacity, ops):
    touched, ref_touched = [], []
    index = ExtendibleHashIndex(
        capacity, page_hook=lambda b, w: touched.append((b, w)))
    ref = ListBackedHashIndex(
        capacity, page_hook=lambda b, w: ref_touched.append((b, w)))
    for op, *args in ops:
        assert getattr(index, op)(*args) == getattr(ref, op)(*args), op
        assert list(index.items()) == list(ref.items())
        assert len(index) == len(ref)
        assert index.global_depth == ref.global_depth
        assert index.bucket_count == ref.bucket_count
        assert touched == ref_touched
        index.check_invariants()
