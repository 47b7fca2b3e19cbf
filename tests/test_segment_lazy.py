"""The lazy segment view and the byte cache over it.

A frozen partition is held as validated segment bytes; a search decodes
the posting lists of its keyword conjuncts and the rows of the surviving
candidates, nothing else, and the cache drops decoded state before it
drops bytes.  What must hold: the lazy answer equals a brute-force scan
of the segment's own rows equals the live replica's answer — whatever
was decoded before, in whatever order, before and after a shed; the
decode counts are what the design says they are; a CRC-valid segment
that is inconsistent inside degrades to the live replica and repairs;
and the cache's books balance under any interleaving.
"""

import random
import struct
import zlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from perf.harness import build_deployment, preload
from perf.workloads import build_query_pool

from repro.cluster.index_node import AcgReplica
from repro.cluster.messages import IndexUpdate
from repro.cluster.segments import (
    _HEADER,
    SegmentCache,
    dump_segment,
    load_segment,
)
from repro.errors import SegmentCorruption
from repro.indexstructures.serialization import load_value
from repro.query import parse_query
from repro.query.ast import Keyword, conjuncts, matches
from repro.query.executor import tokenize_path
from repro.sim.clock import SimClock
from repro.sim.machine import Machine


@pytest.fixture(scope="module")
def frozen():
    """A two-node deployment with every partition frozen, the
    ``search-fanout`` pool's four query types over it (one turn of the
    type pattern) and ``cold-tier``'s per-directory lookups."""
    dep = build_deployment(nodes=2, group_size=25)
    preload(dep, 600, seed=7)
    dep.service.set_tiering(True, freeze_age_s=2.0, min_bytes=1)
    dep.service.advance(15.0)
    nodes = list(dep.service.index_nodes.values())
    assert all(set(n.frozen) == set(n.replicas) for n in nodes)
    scans = build_query_pool(dep, random.Random(7), 20)
    lookups = sorted({"keyword:{} & keyword:{}".format(*p.split("/")[2:5:2])
                      for p in dep.paths})
    for node in nodes:
        node.result_caching = False
    return dep, lookups, scans


def segment_bytes(dep, node, acg_id):
    return dep.service.object_store._objects[node.frozen[acg_id].key]


def brute_force(view, predicate, now):
    return {file_id for file_id, attrs, path in view.rows()
            if matches(predicate, dict(attrs, path=path),
                       tokenize_path(path), now)}


def test_lazy_equals_brute_force_equals_live(frozen):
    dep, lookups, scans = frozen
    now = dep.clock.now()
    predicates = {q: parse_query(q) for q in lookups + scans}
    checked = 0
    for node in dep.service.index_nodes.values():
        for acg_id in sorted(node.frozen):
            data = segment_bytes(dep, node, acg_id)
            live = {q: set(node._search_live_body(acg_id, node._prepare(p),
                                                  None, now).file_ids)
                    for q, p in predicates.items()}
            reference = load_segment(data)
            for order in (lookups + scans, scans + lookups):
                view = load_segment(data)
                for _round in ("fresh", "memoised", "shed"):
                    for query in order:
                        got = view.search(predicates[query], now)
                        assert got == live[query], (acg_id, query, _round)
                        checked += 1
                    if _round == "memoised":
                        assert view.shed() > 0
                        assert view.decoded_bytes() == 0
            for query, predicate in predicates.items():
                assert brute_force(reference, predicate, now) == live[query]
    assert checked > 5_000
    assert any(live.values())


def test_a_lookup_decodes_its_terms_and_its_candidates_only(frozen):
    dep, lookups, _scans = frozen
    now = dep.clock.now()
    counts = []
    for node in dep.service.index_nodes.values():
        for acg_id in sorted(node.frozen):
            data = segment_bytes(dep, node, acg_id)
            for query in lookups[::5]:
                predicate = parse_query(query)
                terms = {c.term for c in conjuncts(predicate)
                         if isinstance(c, Keyword)}
                view = load_segment(data)
                assert view.resident_bytes() == 256 + len(data)
                found = view.search(predicate, now)
                # Every conjunct here is a keyword, so the candidates
                # are the answer: no row beyond it was touched.
                assert view.rows_decoded == len(found)
                assert view.postings_decoded == len(terms) == 2
                assert view.search(predicate, now) == found
                assert (view.rows_decoded, view.postings_decoded) \
                    == (len(found), 2)
                counts.append((len(found), view.file_count()))
    assert any(0 < found < files for found, files in counts)


def test_a_scan_decodes_every_row_once(frozen):
    dep, _lookups, _scans = frozen
    node = next(iter(dep.service.index_nodes.values()))
    view = load_segment(segment_bytes(dep, node, min(node.frozen)))
    everything = parse_query("size>=0")
    assert len(view.search(everything, 0.0)) == view.file_count()
    assert view.rows_decoded == view.file_count()
    assert view.postings_decoded == 0
    view.search(everything, 0.0)
    assert view.rows_decoded == view.file_count()
    # The charge covers what is held: the bytes and the rows (by the
    # live store's estimator) — the inflated body went with the search.
    assert view.decoded_bytes() == view._store.estimated_bytes() > 0
    assert view.resident_bytes() \
        == 256 + len(view.data) + view.decoded_bytes()
    # A fully decoded view is the footprint a freeze records up front.
    assert 256 + view.decoded_bytes() \
        == node.frozen[min(node.frozen)].hydrated_bytes


def test_bytes_only_budget_serves_repeat_lookups_without_a_get(frozen):
    """A budget that holds every segment's bytes and no decoded state:
    after the first pass nothing is fetched again — each search decodes
    what it needs and the cache sheds it, never the bytes."""
    dep, lookups, _scans = frozen
    store = dep.service.object_store
    predicates = [parse_query(q) for q in lookups[::4]]
    for node in dep.service.index_nodes.values():
        node.segment_cache.resize(sum(
            256 + f.serialized_bytes for f in node.frozen.values()))
        node.drop_caches()
    passes = []
    for _ in range(3):
        before = (store.stats.gets,
                  sum(n.tier_rows_decoded
                      for n in dep.service.index_nodes.values()))
        for node in dep.service.index_nodes.values():
            for acg_id in sorted(node.frozen):
                for predicate in predicates:
                    node._search_one(acg_id, predicate, None)
        passes.append((store.stats.gets - before[0],
                       sum(n.tier_rows_decoded
                           for n in dep.service.index_nodes.values())
                       - before[1]))
    frozen_count = sum(len(n.frozen)
                       for n in dep.service.index_nodes.values())
    assert passes[0][0] == frozen_count
    assert passes[1][0] == passes[2][0] == 0
    # ... paid for in decodes, the same number every pass.
    assert passes[1][1] == passes[2][1] > 0
    for node in dep.service.index_nodes.values():
        cache = node.segment_cache
        assert len(cache) == len(node.frozen)
        assert cache.stats.evictions == 0 and cache.stats.sheds > 0
        assert cache.estimated_bytes() <= cache.budget_bytes
    registry = dep.service.registry
    assert registry.value("tier.rows_decoded") > 0
    assert registry.value("tier.postings_decoded") > 0
    assert registry.value("tier.views_shed") > 0
    tiers = dep.service.memory_tiers()
    assert all(r["segment_cache_bytes"] > 0 for r in tiers)
    assert all(r["segment_cache_decoded"] >= 0 for r in tiers)


# -- CRC-valid, inconsistent inside ----------------------------------------------


def reframe(data, mutate):
    """``data`` with ``mutate(raw body, section starts)`` applied and
    the framing (length, CRC) made valid again."""
    raw = bytearray(zlib.decompress(data[_HEADER.size:]))
    starts, offset = [], 0
    for _ in range(6):
        starts.append(offset + 4)
        offset += 4 + struct.unpack_from("<I", raw, offset)[0]
    mutate(raw, starts)
    body = zlib.compress(bytes(raw), 6)
    magic, version, acg_id, _len, _crc = _HEADER.unpack_from(data)
    header = _HEADER.pack(magic, version, acg_id, len(body), 0)[:-4]
    return header + struct.pack("<I", zlib.crc32(body, zlib.crc32(header))) \
        + body


def break_first_row_length(raw, starts):
    _schemas, at = load_value(bytes(raw), starts[2])
    (n,) = struct.unpack_from("<I", raw, at)
    struct.pack_into("<I", raw, at + 4 + 8 * n, 0x00FFFFFF)


def break_first_term_length(raw, starts):
    struct.pack_into("<I", raw, starts[4] + 4, 0x00FFFFFF)


def rename_last_row(raw, starts):
    """The id column's last entry moves; the postings still name it."""
    _schemas, at = load_value(bytes(raw), starts[2])
    (n,) = struct.unpack_from("<I", raw, at)
    (last,) = struct.unpack_from("<q", raw, at + 4 + 8 * (n - 1))
    struct.pack_into("<q", raw, at + 4 + 8 * (n - 1), last + 1_000_000)


@pytest.mark.parametrize("mutate, query", [
    (break_first_row_length, "size>=0"),
    (break_first_term_length, "keyword:copy0000"),
    (rename_last_row, "keyword:data"),
])
def test_out_of_range_table_entry_falls_back_and_repairs(frozen, mutate,
                                                         query):
    dep, _lookups, _scans = frozen
    node = next(iter(dep.service.index_nodes.values()))
    acg_id = min(node.frozen)
    key = node.frozen[acg_id].key
    store = dep.service.object_store
    good = store._objects[key]
    bad = reframe(good, mutate)
    # Framing is intact — validation passes, the damage is inside.
    view = load_segment(bad)
    with pytest.raises(SegmentCorruption):
        view.search(parse_query(query), 0.0)
    store._objects[key] = bad
    node.drop_caches()
    predicate = parse_query(query)
    now = dep.clock.now()
    live = node._search_live_body(acg_id, node._prepare(predicate), None,
                                  now)
    repairs, fallbacks = node.tier_repairs, node.tier_fallbacks
    journaled = len(dep.service.journal.events(type="tier.repair"))
    assert node._search_one(acg_id, predicate, None) == live
    assert (node.tier_repairs, node.tier_fallbacks) \
        == (repairs + 1, fallbacks + 1)
    assert len(dep.service.journal.events(type="tier.repair")) \
        == journaled + 1
    assert key not in node.segment_cache
    assert store._objects[key] == good
    # The next search hydrates the repaired object and answers from it.
    hydrations = node.tier_hydrations
    assert node._search_one(acg_id, predicate, None) == live
    assert node.tier_hydrations == hydrations + 1
    assert (node.tier_repairs, node.tier_fallbacks) \
        == (repairs + 1, fallbacks + 1)
    assert key in node.segment_cache


# -- the cache's books -------------------------------------------------------------


def _segment(acg_id, files):
    replica = AcgReplica(acg_id, Machine(SimClock()))
    replica.apply_batch([
        IndexUpdate.upsert(acg_id * 1000 + i, {"size": i},
                           path=f"/d{i % 3}/f{i}")
        for i in range(files)])
    return dump_segment(replica, "n1")


SEGMENTS = [_segment(i, files) for i, files in enumerate((3, 8, 8, 20, 40))]
SMALLEST = min(256 + len(data) for data in SEGMENTS)
QUERIES = [parse_query(q) for q in
           ("keyword:d0", "keyword:d1 & keyword:f4", "size>=5", "size<0")]


class SegmentCacheMachine(RuleBasedStateMachine):
    """put / get / search / shed / invalidate / resize in any order."""

    keys = st.sampled_from(["a", "b", "c", "d", "e", "f"])

    def __init__(self):
        super().__init__()
        self.cache = SegmentCache(budget_bytes=8 * SMALLEST,
                                  admit_fraction=1.0)
        self.settled = True

    def _after(self, evictions_before):
        """The cache has just recharged."""
        cache = self.cache
        assert cache.estimated_bytes() <= cache.budget_bytes \
            or len(cache) == 0
        if cache.stats.evictions > evictions_before:
            # Bytes went: every view had given up its decoded state.
            assert cache.decoded_bytes() == 0
        self.settled = True

    @rule(key=keys, which=st.integers(0, len(SEGMENTS) - 1))
    def put(self, key, which):
        view = load_segment(SEGMENTS[which])
        evictions = self.cache.stats.evictions
        kept = self.cache.put(key, view)
        assert kept == (view.resident_bytes() <= self.cache.budget_bytes)
        if kept:  # a rejected view changes nothing, recharges nothing
            assert key in self.cache
            self._after(evictions)

    @rule(key=keys)
    def get(self, key):
        assert (self.cache.get(key) is not None) == (key in self.cache)

    @rule(key=keys, query=st.sampled_from(QUERIES), settle=st.booleans())
    def search(self, key, query, settle):
        view = self.cache.get(key)
        if view is None:
            return
        reference = load_segment(view.data)
        assert view.search(query, 0.0) == reference.search(query, 0.0)
        self.settled = False
        if settle:
            evictions = self.cache.stats.evictions
            self.cache.recharge()
            self._after(evictions)

    @rule(key=keys)
    def shed(self, key):
        view = self.cache.get(key)
        if view is not None:
            view.shed()
            assert view.resident_bytes() == 256 + len(view.data)

    @rule(key=keys)
    def invalidate(self, key):
        self.cache.invalidate(key)
        assert key not in self.cache

    @rule(budget=st.integers(1, 12 * SMALLEST))
    def resize(self, budget):
        evictions = self.cache.stats.evictions
        self.cache.resize(budget)
        self._after(evictions)

    @invariant()
    def books_balance(self):
        cache = self.cache
        views = list(cache._views.values())
        assert cache.estimated_bytes() \
            == sum(view.resident_bytes() for view in views)
        assert cache.decoded_bytes() \
            == sum(view.decoded_bytes() for view in views)
        if self.settled:
            # Only an unsettled search may leave the cache over budget.
            assert cache.estimated_bytes() <= cache.budget_bytes \
                or not views


TestSegmentCacheBooks = SegmentCacheMachine.TestCase
TestSegmentCacheBooks.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None)
