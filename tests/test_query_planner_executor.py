"""Query planning and execution against real index structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError, UnknownIndexName
from repro.indexstructures import BPlusTree, ExtendibleHashIndex, IndexKind, KDTreeIndex
from repro.indexstructures.postings import PostingList
from repro.query.ast import Compare, Keyword, Or
from repro.query.executor import AttributeStore, execute, tokenize_path
from repro.query.parser import parse_query
from repro.query.planner import IndexSpec, plan_query


def test_tokenize_path():
    assert tokenize_path("/home/john/.mozilla/prefs.js") == frozenset(
        {"home", "john", "mozilla", "prefs", "js"})
    assert tokenize_path("/A-B_c1/X.TXT") == frozenset({"a", "b", "c1", "x", "txt"})


def test_index_spec_validation():
    with pytest.raises(QueryError):
        IndexSpec("bad", IndexKind.BTREE, ("a", "b"))
    with pytest.raises(QueryError):
        IndexSpec("bad", IndexKind.KDTREE, ())


SPECS = [
    IndexSpec("by_size", IndexKind.BTREE, ("size",)),
    IndexSpec("by_uid", IndexKind.HASH, ("uid",)),
    IndexSpec("by_kw", IndexKind.HASH, ("keyword",)),
    IndexSpec("kd", IndexKind.KDTREE, ("size", "mtime")),
]


def test_plan_prefers_hash_for_equality():
    plan = plan_query(parse_query("uid==42 & size>10"), SPECS, now=0)
    assert plan.access == "hash_eq"
    assert plan.index_name == "by_uid"
    assert plan.key == 42


def test_plan_keyword():
    plan = plan_query(parse_query("keyword:firefox & size>1"), SPECS, now=0)
    assert plan.access == "keyword"
    assert plan.key == "firefox"


def test_plan_kdtree_for_multi_attribute_range():
    plan = plan_query(parse_query("size>10 & mtime<100"), SPECS, now=0)
    assert plan.access == "kdtree_range"
    assert plan.lows == (10.0, None)
    assert plan.highs == (None, 100.0)


def test_plan_btree_for_single_range():
    specs = [IndexSpec("by_size", IndexKind.BTREE, ("size",))]
    plan = plan_query(parse_query("size>10 & size<=90"), specs, now=0)
    assert plan.access == "btree_range"
    assert plan.low == 10 and not plan.include_low
    assert plan.high == 90 and plan.include_high


def test_plan_merges_multiple_bounds_tightest_wins():
    specs = [IndexSpec("by_size", IndexKind.BTREE, ("size",))]
    plan = plan_query(parse_query("size>10 & size>20 & size<50"), specs, now=0)
    assert plan.low == 20


def test_plan_resolves_relative_age():
    specs = [IndexSpec("by_mtime", IndexKind.BTREE, ("mtime",))]
    plan = plan_query(parse_query("mtime<1day"), specs, now=100_000)
    assert plan.access == "btree_range"
    assert plan.low == pytest.approx(100_000 - 86_400)


def test_plan_falls_back_to_scan():
    plan = plan_query(parse_query("owner==john"), SPECS, now=0)
    assert plan.access == "scan"


def test_plan_or_at_top_level_scans():
    pred = Or((Compare("size", ">", 1), Keyword("x")))
    assert plan_query(pred, SPECS, now=0).access == "scan"


def build_store_and_indexes(files):
    """files: list of (fid, size, mtime, uid, path)."""
    store = AttributeStore()
    by_size = BPlusTree()
    by_uid = ExtendibleHashIndex()
    by_kw = ExtendibleHashIndex()
    kd = KDTreeIndex(dimensions=2)
    for fid, size, mtime, uid, path in files:
        store.put(fid, {"size": size, "mtime": mtime, "uid": uid}, path=path)
        by_size.insert(size, fid)
        by_uid.insert(uid, fid)
        for token in tokenize_path(path):
            by_kw.insert(token, fid)
        kd.insert((size, mtime), fid)
    indexes = {"by_size": by_size, "by_uid": by_uid, "by_kw": by_kw, "kd": kd}
    return store, indexes


FILES = [
    (1, 100, 10.0, 0, "/data/small.bin"),
    (2, 5000, 20.0, 0, "/data/medium.bin"),
    (3, 90000, 30.0, 1, "/home/big.dat"),
    (4, 90000, 5.0, 1, "/home/big-old.dat"),
]


@pytest.mark.parametrize("query,expected", [
    ("size>1000", {2, 3, 4}),
    ("size>1000 & mtime>10", {2, 3}),
    ("uid==1", {3, 4}),
    ("keyword:data", {1, 2}),
    ("keyword:big & mtime>10", {3}),
    ("size>100000", set()),
    ("size>=90000 & size<=90000", {3, 4}),
])
def test_execute_matches_expectation(query, expected):
    store, indexes = build_store_and_indexes(FILES)
    pred = parse_query(query)
    plan = plan_query(pred, SPECS, now=100.0)
    assert execute(plan, pred, indexes, store, now=100.0) == expected


def test_keyword_conjunction_with_absent_term_builds_no_postings(monkeypatch):
    """An absent conjunct answers empty before the other conjuncts'
    posting lists are built."""
    store, indexes = build_store_and_indexes(FILES)
    built = []
    bulk = PostingList.from_iterable.__func__

    def counted(cls, ids):
        built.append(ids)
        return bulk(cls, ids)

    monkeypatch.setattr(PostingList, "from_iterable", classmethod(counted))
    pred = parse_query("keyword:data & keyword:nosuchword")
    plan = plan_query(pred, SPECS, now=100.0)
    assert plan.access == "keyword"
    assert execute(plan, pred, indexes, store, now=100.0) == set()
    assert len(built) <= 1


def test_execute_scan_path():
    store, indexes = build_store_and_indexes(FILES)
    pred = parse_query("uid!=0")
    plan = plan_query(pred, [], now=0)
    assert plan.access == "scan"
    assert execute(plan, pred, indexes, store, now=0) == {3, 4}


def test_execute_unknown_index_name():
    store, indexes = build_store_and_indexes(FILES)
    pred = parse_query("size>1")
    from repro.query.planner import Plan
    with pytest.raises(UnknownIndexName):
        execute(Plan("hash_eq", index_name="ghost", key=1), pred, indexes, store, 0)


def test_bounds_that_do_not_order_leave_the_range_to_the_filter():
    store, indexes = build_store_and_indexes(FILES)
    spec = IndexSpec("by_owner", IndexKind.BTREE, ("owner",))
    pred = parse_query("owner==ann & owner==1")
    plan = plan_query(pred, [spec], 0)
    assert (plan.low, plan.high) == ("ann", "ann")
    indexes["by_owner"] = BPlusTree()
    assert execute(plan, pred, indexes, store, now=0) == set()


def test_execute_filters_ids_missing_from_store():
    store, indexes = build_store_and_indexes(FILES)
    indexes["by_size"].insert(99999, 42)  # dangling index entry
    pred = parse_query("size>1000")
    plan = plan_query(pred, [IndexSpec("by_size", IndexKind.BTREE, ("size",))], 0)
    assert 42 not in execute(plan, pred, indexes, store, now=0)


@pytest.mark.parametrize("first", [
    {"attrs": {"path": "/d/x.bin"}},                        # no keywords yet
    {"attrs": {"size": 1}, "path": "/a/old.txt"},
])
def test_store_keywords_follow_the_last_path_given(first):
    """A path keeps its keyword set only if that set was tokenized from
    it: an attribute named "path" moves the entry's path, not its
    keywords, so a later put under that path still tokenizes."""
    store = AttributeStore()
    store.put(7, **first)
    if "path" in first:
        store.put(7, {"path": "/d/x.bin"})
    store.put(7, {"size": 2}, path="/d/x.bin")
    assert store.keywords(7) == tokenize_path("/d/x.bin")
    kept = store.keywords(7)
    store.put(7, {"size": 3}, path="/d/x.bin")
    assert store.keywords(7) is kept
    store.drop(7)
    store.put(7, {}, path="/d/x.bin")
    assert store.keywords(7) == kept


def test_plan_query_set_splits_indexable_or():
    from repro.query.planner import plan_query_set

    pred = parse_query("uid==1 | keyword:data")
    plans = plan_query_set(pred, SPECS, now=0)
    assert len(plans) == 2
    assert {p.access for p in plans} == {"hash_eq", "keyword"}


def test_plan_query_set_falls_back_when_branch_unindexable():
    from repro.query.planner import plan_query_set

    pred = parse_query("uid==1 | owner==john")   # no index for owner
    plans = plan_query_set(pred, SPECS, now=0)
    assert len(plans) == 1
    assert plans[0].access == "scan"


def test_execute_plans_union_matches_scan():
    from repro.query.executor import execute_plans
    from repro.query.planner import Plan, plan_query_set

    store, indexes = build_store_and_indexes(FILES)
    pred = parse_query("uid==1 | keyword:data")
    plans = plan_query_set(pred, SPECS, now=0)
    fast = execute_plans(plans, pred, indexes, store, now=0)
    slow = execute_plans([Plan("scan")], pred, indexes, store, now=0)
    assert fast == slow == {1, 2, 3, 4}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 100)),
                min_size=1, max_size=60),
       st.integers(0, 10_000), st.integers(0, 100))
def test_property_planned_equals_scan(data, size_bound, mtime_bound):
    files = [(i, size, float(mtime), 0, f"/f/{i}.bin")
             for i, (size, mtime) in enumerate(data)]
    store, indexes = build_store_and_indexes(files)
    pred = parse_query(f"size>{size_bound} & mtime<={mtime_bound}")
    planned = plan_query(pred, SPECS, now=0)
    assert planned.access != "scan"
    from repro.query.planner import Plan
    fast = execute(planned, pred, indexes, store, now=0)
    slow = execute(Plan("scan"), pred, indexes, store, now=0)
    assert fast == slow
