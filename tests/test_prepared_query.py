"""Differential tests: every fast path of the prepared query is pinned to
the code it replaces.

* the compiled matcher ≡ the reference interpreter ``ast.matches``;
* the compiled summary check ≡ the recursive ``summary_may_match`` it
  replaced (kept here, verbatim, as the reference);
* a Bloom probe mask ≡ the positions it is built from;
* the B+tree's leaf-slice range ≡ the per-pair generator, page touches
  included;
* the client's run merge ≡ ``sorted(set(...))``.

Derandomised: a failure here is the same failure on every run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PropellerService
from repro.cluster.client import merged_paths
from repro.cluster.messages import SearchResult
from repro.errors import QueryError
from repro.indexstructures import BloomFilter, IndexKind
from repro.indexstructures.bloom import _positions, probe_mask
from repro.indexstructures.btree import BPlusTree
from repro.query.ast import (And, Compare, Keyword, Not, Or, RelativeAge,
                             is_numeric, matches)
from repro.query.parser import parse_query
from repro.query.prepared import PreparedCache, PreparedQuery, prepare
from repro.query.summary import SummarySnapshot, summary_may_match

DIFFERENTIAL = settings(max_examples=150, derandomize=True, deadline=None)

ATTRS = ("size", "mtime", "owner", "score")
TOKENS = ("alpha", "beta", "gamma", "delta", "x1")
NOWS = (0.0, 50.0, 86_400.5, 1e6)

numbers = st.one_of(st.integers(-50, 50),
                    st.floats(-50, 50, allow_nan=False).map(lambda f: round(f, 2)),
                    st.booleans())
strings = st.sampled_from(("", "john", "mary", "10"))
bounds = st.one_of(numbers, strings,
                   st.sampled_from((0.0, 10.0, 86_400.0)).map(RelativeAge))
compares = st.builds(Compare, st.sampled_from(ATTRS),
                     st.sampled_from(("<", "<=", "==", "!=", ">=", ">")),
                     bounds)
keywords = st.builds(Keyword, st.sampled_from(TOKENS + ("absent",)))
predicates = st.recursive(
    st.one_of(compares, keywords),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.lists(inner, min_size=1, max_size=3).map(lambda c: And(tuple(c))),
        st.lists(inner, min_size=1, max_size=3).map(lambda c: Or(tuple(c)))),
    max_leaves=6)
rows = st.tuples(
    st.dictionaries(st.sampled_from(ATTRS), st.one_of(numbers, strings)),
    st.frozensets(st.sampled_from(TOKENS)))


# -- compiled matcher ≡ ast.matches ------------------------------------------------


@DIFFERENTIAL
@given(predicates, st.lists(rows, min_size=1, max_size=6))
def test_compiled_matcher_equals_the_reference_interpreter(predicate, batch):
    query = prepare(predicate)
    for now in NOWS + NOWS[:1]:       # back to a ``now`` already compiled
        match = query.matcher(now)
        for attrs, kws in batch:
            assert bool(match(attrs, kws)) \
                == bool(matches(predicate, attrs, kws, now)), (attrs, kws, now)
    if not query.time_dependent:
        assert query.matcher(1.0) is query.matcher(2.0)


def test_matcher_keeps_null_and_type_error_semantics():
    match = prepare(Or((Compare("size", ">", 5), Compare("owner", "<", 3),
                        Not(Compare("mtime", "==", 1))))).matcher(0.0)
    assert match({"size": 6}, frozenset())
    assert match({"size": "big", "owner": "john"}, frozenset())   # Not(NULL)
    assert not match({"owner": "john", "mtime": 1}, frozenset())  # str < int
    with pytest.raises(QueryError):
        PreparedQuery(object()).matcher(0.0)  # type: ignore[arg-type]


# -- compiled summary check ≡ the recursive check it replaced ---------------------


def reference_may_match(snapshot, predicate, now):
    """``summary_may_match`` as it stood before the prepared form."""
    if snapshot.file_count == 0:
        return False
    if isinstance(predicate, Compare):
        if predicate.attr not in snapshot.attrs_seen:
            return False
        time_derived = isinstance(predicate.value, RelativeAge)
        resolved = predicate.resolved(now)
        if not is_numeric(resolved.value):
            return True
        if resolved.op == "!=":
            return True
        zone = next((z for z in snapshot.zones if z[0] == resolved.attr), None)
        if zone is None:
            return True
        _, lo, hi = zone
        value = resolved.value
        if resolved.op == ">":
            return hi > value
        if resolved.op == ">=":
            return hi >= value
        if time_derived:
            return True
        if resolved.op == "<":
            return lo < value
        if resolved.op == "<=":
            return lo <= value
        if resolved.op == "==":
            return lo <= value <= hi
        return True
    if isinstance(predicate, Keyword):
        return all(snapshot.bloom_bits >> pos & 1
                   for pos in _positions(predicate.term, snapshot.bloom_m,
                                         snapshot.bloom_k))
    if isinstance(predicate, And):
        return all(reference_may_match(snapshot, c, now)
                   for c in predicate.children)
    if isinstance(predicate, Or):
        return any(reference_may_match(snapshot, c, now)
                   for c in predicate.children)
    return True   # Not: fail open


@st.composite
def snapshots(draw):
    seen = draw(st.frozensets(st.sampled_from(ATTRS)))
    zoned = draw(st.frozensets(st.sampled_from(sorted(seen)))) if seen \
        else frozenset()                  # the rest: seen, never numeric
    zones = []
    for name in sorted(zoned):
        lo, hi = sorted(draw(st.tuples(st.integers(-60, 60),
                                       st.integers(-60, 60))))
        zones.append((name, lo, hi + draw(st.sampled_from((0, 0.5)))))
    m, k = draw(st.sampled_from(((64, 2), (1000, 3), (8192, 4))))
    bloom = BloomFilter(m, k)
    bloom.add_all(draw(st.lists(st.sampled_from(TOKENS), max_size=4)))
    return SummarySnapshot(
        acg_id=draw(st.integers(1, 9)), watermark=("in1", 1, 1), dirty=False,
        file_count=draw(st.sampled_from((0, 1, 40))), attrs_seen=seen,
        zones=tuple(zones), bloom_bits=bloom.bits, bloom_m=m, bloom_k=k)


@DIFFERENTIAL
@given(predicates, st.lists(snapshots(), min_size=1, max_size=5))
def test_compiled_summary_check_equals_the_recursive_one(predicate, snaps):
    query = prepare(predicate)         # one form, every snapshot and now
    for now in NOWS:
        for snap in snaps:
            want = reference_may_match(snap, predicate, now)
            assert summary_may_match(snap, query, now) is want, (snap, now)
            assert summary_may_match(snap, predicate, now) is want


def test_every_compare_rule_against_every_zone_shape():
    """The leaf rules, swept instead of sampled: every operator × a
    numeric, a string and a time-relative bound × an attribute never
    seen, seen but never numeric, and zoned below / around / above the
    bound — at several ``now``s (a time-derived ``<``, ``<=``, ``==``
    must fail open; ``>`` / ``>=`` prune on the zone's max)."""
    def snap(seen, zones):
        return SummarySnapshot(1, ("in1", 1, 1), False, 3, frozenset(seen),
                               tuple(zones), 0, 64, 2)

    shapes = [snap((), ()), snap(("mtime",), ()),
              snap(("mtime", "size"), (("size", 0, 1),))]
    shapes += [snap(("mtime",), (("mtime", lo, hi),))
               for lo, hi in ((-90, -80), (-20, 20), (30, 45), (50, 50),
                              (60, 1e7))]
    checked = 0
    for op in ("<", "<=", "==", "!=", ">=", ">"):
        for value in (50, -20, 44.5, "50", RelativeAge(0.0), RelativeAge(10.0),
                      RelativeAge(86_400.0)):
            predicate = Compare("mtime", op, value)
            query = prepare(predicate)
            for now in NOWS:
                for shape in shapes:
                    assert summary_may_match(shape, query, now) \
                        is reference_may_match(shape, predicate, now), \
                        (op, value, now, shape.zones)
                    checked += 1
    assert checked == 6 * 7 * len(NOWS) * len(shapes)


def test_a_keyword_is_hashed_once_per_geometry_not_once_per_snapshot(
        monkeypatch):
    import repro.query.prepared as prepared_module

    hashed = []

    def counting(token, m_bits, k):
        hashed.append((token, m_bits, k))
        return probe_mask(token, m_bits, k)

    monkeypatch.setattr(prepared_module, "probe_mask", counting)
    bloom = BloomFilter()
    bloom.add_all(["alpha", "beta"])
    small = BloomFilter(64, 2)
    small.add("alpha")

    def snap(acg_id, filt):
        return SummarySnapshot(acg_id, ("in1", 1, 1), False, 5, frozenset(),
                               (), filt.bits, filt.m_bits, filt.k)

    query = prepare(parse_query("keyword:alpha & keyword:beta"))
    for acg_id in range(20):
        assert summary_may_match(snap(acg_id, bloom), query, float(acg_id))
    assert not summary_may_match(snap(99, small), query, 0.0)
    assert sorted(hashed) == [("alpha", 64, 2), ("alpha", 8192, 4),
                              ("beta", 64, 2), ("beta", 8192, 4)]
    assert snap(1, bloom).keyword_may_match("alpha")
    assert not snap(1, small).keyword_may_match("beta")


# -- probe mask ≡ positions --------------------------------------------------------


@DIFFERENTIAL
@given(st.lists(st.text(max_size=12), min_size=1, max_size=8),
       st.text(max_size=12), st.integers(1, 9000), st.integers(1, 7))
def test_probe_mask_equals_positions(added, probe, m_bits, k):
    for token in added + [probe]:
        mask = probe_mask(token, m_bits, k)
        assert mask == sum({1 << pos for pos in _positions(token, m_bits, k)})
    bloom = BloomFilter(m_bits, k)
    bloom.add_all(added)
    assert all(bloom.might_contain(token) for token in added)
    assert bloom.might_contain(probe) == all(
        bloom.bits >> pos & 1 for pos in _positions(probe, m_bits, k))


# -- leaf-slice range ≡ the per-pair generator -------------------------------------


@DIFFERENTIAL
@given(st.integers(3, 8),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 5)), max_size=80),
       st.lists(st.integers(0, 40), max_size=10),
       st.lists(st.tuples(st.one_of(st.none(), st.integers(-2, 42)),
                          st.one_of(st.none(), st.integers(-2, 42))),
                min_size=1, max_size=6))
def test_leaf_slice_range_equals_the_generator_touch_for_touch(
        order, pairs, removed, ranges):
    touched = []
    tree = BPlusTree(order=order,
                     page_hook=lambda node, write: touched.append((node, write)))
    for key, value in pairs:
        tree.insert(key, value)
    for key in removed:
        tree.remove(key)
    for low, high in ranges:
        for include_low in (True, False):
            for include_high in (True, False):
                del touched[:]
                want = [v for _, v in tree.range(low, high, include_low,
                                                 include_high)]
                pages = list(touched)
                del touched[:]
                assert tree.range_values(low, high, include_low,
                                         include_high) == want
                assert touched == pages


# -- the client's merge ≡ sorted(set(...)) -----------------------------------------


@DIFFERENTIAL
@given(st.lists(st.lists(st.sampled_from(
    [f"/d{i % 3}/f{i:02d}" for i in range(30)]), max_size=12), max_size=6))
def test_run_merge_equals_sorted_set(legs):
    results = [SearchResult("in1", acg_id, paths=tuple(sorted(set(leg))))
               for acg_id, leg in enumerate(legs)]
    assert merged_paths(results) \
        == sorted({p for r in results for p in r.paths})


def test_run_merge_drops_a_path_answered_by_two_partitions():
    results = [SearchResult("in1", 1, paths=("/a", "/c")),
               SearchResult("in2", 2, paths=("/b", "/c", "/d")),
               SearchResult("in3", 3)]
    assert merged_paths(results) == ["/a", "/b", "/c", "/d"]
    assert merged_paths([]) == []


# -- who prepares, and how often ---------------------------------------------------


def test_prepared_cache_is_a_bounded_lru_and_caches_no_failure():
    parsed = []

    def parse(text):
        parsed.append(text)
        return parse_query(text)

    cache = PreparedCache(2)
    first = cache.get("size>1", parse)
    assert cache.get("size>1", parse) is first and parsed == ["size>1"]
    cache.get("size>2", parse)
    cache.get("size>1", parse)            # refreshes size>1
    cache.get("size>3", parse)            # evicts size>2, the oldest
    assert len(cache) == 2 and cache.get("size>1", parse) is first
    cache.get("size>2", parse)
    assert parsed == ["size>1", "size>2", "size>3", "size>2"]
    with pytest.raises(QueryError):
        cache.get("size >", parse)
    with pytest.raises(QueryError):
        cache.get("size >", parse)
    assert parsed[-2:] == ["size >", "size >"] and len(cache) == 2
    predicate = parse_query("size>9")
    assert cache.get(predicate).predicate is predicate   # a node's use


def test_a_repeated_search_parses_and_prepares_once_per_process(monkeypatch):
    """Client and Index Node each prepare a query once — the client per
    query string, the node per predicate off the wire — and a repeat of
    the search prepares nothing anywhere."""
    import repro.query.prepared as prepared_module

    built = []
    original = PreparedQuery.__init__

    def counting(self, predicate):
        built.append(predicate)
        original(self, predicate)

    monkeypatch.setattr(PreparedQuery, "__init__", counting)
    hashed = []
    monkeypatch.setattr(
        prepared_module, "probe_mask",
        lambda *args: hashed.append(args[0]) or probe_mask(*args))
    service = PropellerService(num_index_nodes=2)
    client = service.make_client()
    client.create_index("by_kw", IndexKind.HASH, ["keyword"])
    service.vfs.mkdir("/d")
    paths = [f"/d/report{i}.txt" for i in range(40)]
    for path in paths:
        service.vfs.write_file(path, 10, pid=7)
    client.index_paths(paths, pid=7)
    service.commit_all()
    service.advance(6.0)                  # summaries reach the client
    query = "keyword:report7 & keyword:txt"
    assert client.search(query) == ["/d/report7.txt"]
    nodes_asked = len(service.index_nodes)
    assert 1 <= len(built) <= 1 + nodes_asked
    assert sorted(hashed) == ["report7", "txt"]
    del built[:], hashed[:]
    assert client.search(query) == ["/d/report7.txt"]
    assert client.select(query, ["size"]) \
        == [{"path": "/d/report7.txt", "size": 10}]
    assert built == [] and hashed == []
