"""Search fan-out pruning: partition summaries, watermark validation,
and the answers a client holds.

The safety property under test throughout: pruning may only ever cost a
wasted search leg — it must never drop a matching file.  Bloom false
positives, stale summaries, pending uncommitted updates, and migrations
all degrade to "search the leg anyway" (fail open).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.indexstructures import BloomFilter
from repro.query import (PartitionSummary, SummarySnapshot, canonicalize,
                         is_time_dependent, parse_query, summary_may_match)
from repro.query.ast import (And, Compare, Keyword, Not, Or, RelativeAge,
                             matches)
from repro.query.executor import AttributeStore

from tests.conftest import machine_examples

WM = ("in1", 1, 7)


# ---------------------------------------------------------------------------
# Bloom filter


def test_bloom_never_false_negative():
    bloom = BloomFilter()
    terms = [f"token{i:04d}" for i in range(200)]
    bloom.add_all(terms)
    assert all(t in bloom for t in terms)


def test_bloom_rarely_false_positive():
    bloom = BloomFilter()
    bloom.add_all(f"present{i}" for i in range(200))
    absent = [f"absent{i}" for i in range(500)]
    fps = sum(bloom.might_contain(t) for t in absent)
    # ~200 keys in 8192 bits with 4 hashes: FP rate is ~1e-4.
    assert fps <= 2
    assert not all(bloom.might_contain(t) for t in absent)


def test_bloom_merge_is_union():
    a, b = BloomFilter(), BloomFilter()
    a.add("left")
    b.add("right")
    a.merge(b)
    assert "left" in a and "right" in a


# ---------------------------------------------------------------------------
# Canonicalization (the held-answer key)


def test_canonicalize_is_order_insensitive():
    p1 = parse_query("size>1m & keyword:firefox")
    p2 = parse_query("keyword:firefox & size>1m")
    assert canonicalize(p1) == canonicalize(p2)
    assert canonicalize(p1) != canonicalize(parse_query("size>2m & keyword:firefox"))


def test_canonicalize_flattens_and_dedupes():
    a = Compare("size", ">", 10)
    b = Keyword("x")
    nested = And((a, And((b, a))))
    canon = canonicalize(nested)
    assert isinstance(canon, And)
    assert sorted(map(repr, canon.children)) == sorted(map(repr, (a, b)))
    # A conjunction collapsed to one distinct term loses the combinator.
    assert canonicalize(And((a, a))) == a


def test_canonicalize_preserves_semantics_kinds():
    a, b = Compare("size", ">", 10), Keyword("x")
    assert isinstance(canonicalize(Or((b, a))), Or)
    assert canonicalize(Not(a)) == Not(a)


def test_is_time_dependent():
    assert is_time_dependent(parse_query("mtime<1day"))
    assert is_time_dependent(parse_query("size>1m & mtime<1week"))
    assert not is_time_dependent(parse_query("size>1m & keyword:firefox"))


# ---------------------------------------------------------------------------
# summary_may_match: the pruning satisfiability check


def make_snapshot(files=((100, "alpha"), (200, "beta")), dirty=False,
                  extra_attrs=None):
    summary = PartitionSummary()
    for size, token in files:
        attrs = {"size": size, "mtime": float(size)}
        if extra_attrs:
            attrs.update(extra_attrs)
        summary.observe(attrs, [token])
    return summary.snapshot(7, WM, dirty=dirty, file_count=len(files))


def test_empty_partition_prunes_everything():
    snap = PartitionSummary().snapshot(7, WM, dirty=False, file_count=0)
    for query in ("size>1m", "keyword:anything", "mtime<1day", "!size>1m"):
        assert not summary_may_match(snap, parse_query(query), now=0.0)


def test_missing_attribute_prunes_any_comparison():
    snap = make_snapshot()
    # No covered file carries "owner"; a missing attribute satisfies no
    # comparison (SQL-NULL semantics), whatever the operator.
    for op in ("<", "<=", ">", ">=", "==", "!="):
        assert not summary_may_match(snap, Compare("owner", op, 5), now=0.0)


def test_zone_map_directional_rules():
    snap = make_snapshot()  # size in [100, 200]
    t = 0.0
    assert not summary_may_match(snap, Compare("size", ">", 200), t)
    assert summary_may_match(snap, Compare("size", ">", 199), t)
    assert summary_may_match(snap, Compare("size", ">=", 200), t)
    assert not summary_may_match(snap, Compare("size", ">=", 201), t)
    assert not summary_may_match(snap, Compare("size", "<", 100), t)
    assert summary_may_match(snap, Compare("size", "<=", 100), t)
    assert not summary_may_match(snap, Compare("size", "==", 300), t)
    assert summary_may_match(snap, Compare("size", "==", 150), t)
    # != and string comparisons cannot be ruled out by zones: fail open.
    assert summary_may_match(snap, Compare("size", "!=", 150), t)
    assert summary_may_match(snap, Compare("size", ">", "zzz"), t)


def test_relative_age_directional_soundness():
    snap = make_snapshot()  # mtime in [100.0, 200.0]
    now = 1_000_000.0
    # "modified within the last day" resolves to mtime > now-86400; the
    # cutoff only grows with time, so pruning on the zone max is sound.
    assert not summary_may_match(snap, parse_query("mtime<1day"), now)
    # ...but not prunable when the window still reaches the zone.
    assert summary_may_match(snap, parse_query("mtime<1day"), now=150.0)
    # "older than a day" resolves to mtime < now-86400: the allowed set
    # GROWS as the node's clock passes the client's — must fail open even
    # though the zone says every file qualifies already.
    assert summary_may_match(snap, parse_query("mtime>1day"), now)
    assert summary_may_match(
        snap, Compare("mtime", "==", RelativeAge(86400)), now)


def test_keyword_bloom_and_combinators():
    snap = make_snapshot()
    t = 0.0
    assert summary_may_match(snap, Keyword("alpha"), t)
    assert not summary_may_match(snap, Keyword("definitely-absent-term"), t)
    # And prunes if any conjunct is impossible; Or needs all impossible.
    assert not summary_may_match(
        snap, parse_query("keyword:alpha & size>900"), t)
    assert summary_may_match(
        snap, Or((Keyword("definitely-absent-term"), Keyword("beta"))), t)
    assert not summary_may_match(
        snap, Or((Keyword("no1no"), Keyword("no2no"))), t)
    # Negation over an over-approximation: always fail open.
    assert summary_may_match(snap, Not(Compare("size", ">", 900)), t)


def test_rebuild_sheds_delete_slack():
    summary = PartitionSummary()
    store = AttributeStore()
    store.put(1, {"size": 100}, path="/keep/small.bin")
    summary.observe(store.attrs(1), store.keywords(1))
    summary.observe({"size": 10_000}, ["huge"])  # file later deleted
    summary.note_delete()
    snap = summary.snapshot(7, WM, dirty=False, file_count=1)
    assert summary_may_match(snap, Compare("size", ">", 900), 0.0)  # slack
    assert not summary.needs_rebuild(live_files=1)  # rebuilds stay rare
    summary.rebuild(store)
    snap = summary.snapshot(7, WM, dirty=False, file_count=1)
    assert not summary_may_match(snap, Compare("size", ">", 900), 0.0)
    assert not summary_may_match(snap, Keyword("huge"), 0.0)
    assert summary_may_match(snap, Keyword("small"), 0.0)


def test_batch_widening_equals_one_file_at_a_time():
    """A group commit widens once for the lot — one Bloom mask, repeated
    path tokens hashed once — and must land on the same summary as
    observing its files one by one."""
    entries = [({"size": 10 * i, "mtime": 1.5 - i, "path": f"/src/d{i % 2}/f{i}.c"},
                ["src", f"d{i % 2}", f"f{i}", "c", "src"]) for i in range(9)]
    single, batched = PartitionSummary(), PartitionSummary()
    for attrs, keywords in entries:
        single.observe(attrs, keywords)
    batched.observe_batch(iter(entries))
    assert (batched.bloom.bits, batched.zones, batched.attrs_seen) \
        == (single.bloom.bits, single.zones, single.attrs_seen)
    assert batched.snapshot(1, WM, False, 9) == single.snapshot(1, WM, False, 9)


NAN = float("nan")
# Attribute values of every kind a zone sees or skips: ints, floats with
# integral ones among them, infinities, NaN, bools and strings.
SUMMARY_VALUES = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(float),
                           st.just(NAN),
                           st.sampled_from([0.5, -2.5, float("inf"),
                                            float("-inf"), True, False,
                                            "a", "5"]))
SUMMARY_FILE = st.dictionaries(st.sampled_from(["score", "rank"]),
                               SUMMARY_VALUES, max_size=2)
# The file observed first: often a NaN, the value a zone must not start at.
SUMMARY_LEAD = st.one_of(SUMMARY_FILE,
                         st.sampled_from([{"score": NAN},
                                          {"score": NAN, "rank": NAN}]))
SUMMARY_BOUNDS = (-3, -2.5, 0, 0.5, 1, 1.0, True, 3, float("inf"), NAN)


@settings(max_examples=machine_examples(100), derandomize=True,
          deadline=None)
@example({"score": NAN}, [], [{"score": 5}])
@given(SUMMARY_LEAD, st.lists(SUMMARY_FILE, max_size=5),
       st.lists(SUMMARY_FILE, max_size=6))
def test_a_summary_never_rules_out_an_observed_match(lead, rest, second):
    """Observe two batches of files (in any order of value kinds, often
    a NaN first) and then rebuild from the store: for every comparison
    atom, whenever some observed file matches, neither summary may prove
    the partition empty."""
    summary, store = PartitionSummary(), AttributeStore()
    first = [lead] + rest
    files = first + second
    for batch, base in ((first, 0), (second, len(first))):
        summary.observe_batch((attrs, ()) for attrs in batch)
        for file_id, attrs in enumerate(batch, base):
            store.put(file_id, attrs)
    built = summary.snapshot(7, WM, dirty=False, file_count=len(files))
    summary.rebuild(store)
    rebuilt = summary.snapshot(7, WM, dirty=False, file_count=len(files))
    for attr in ("score", "rank"):
        for op in ("==", "<", "<=", ">", ">="):
            for bound in SUMMARY_BOUNDS:
                atom = Compare(attr, op, bound)
                if any(matches(atom, attrs, frozenset(), 0.0)
                       for attrs in files):
                    assert summary_may_match(built, atom, 0.0), atom
                    assert summary_may_match(rebuilt, atom, 0.0), atom


def test_a_nan_attribute_does_not_hide_a_later_match(indexed_service):
    """A NaN observed first used to seed a [nan, nan] zone that no later
    value widened, so the client pruned the partition of a file whose
    attribute had since become 5."""
    service, client = indexed_service
    vfs = service.vfs
    vfs.mkdir("/d")
    vfs.write_file("/d/a.txt", 100, pid=1)
    for score in (NAN, 5):
        vfs.setattr("/d/a.txt", "score", score)
        client.index_path("/d/a.txt", pid=1)
        client.flush_updates()
        service.commit_all()
        service.advance(12.0)   # heartbeats deliver the summaries
    assert client.search("score==5") == ["/d/a.txt"]
    assert client.search("score>1") == ["/d/a.txt"]
    assert service.make_client().search("score<10") == ["/d/a.txt"]


# ---------------------------------------------------------------------------
# Satellite accessors


def test_attribute_store_estimated_bytes_tracks_contents():
    store = AttributeStore()

    def brute_force():
        return sum(64 + 16 * len(entry) for entry in store._attrs.values())

    assert store.estimated_bytes() == 0
    store.put(1, {"size": 10, "mtime": 1.0}, path="/a/b.bin")
    store.put(2, {"size": 20}, path="/a/c.bin")
    assert store.estimated_bytes() == brute_force() > 0
    # Refreshing an existing file only pays for genuinely new attributes.
    store.put(1, {"size": 99, "owner": 3}, path="/a/b.bin")
    assert store.estimated_bytes() == brute_force()
    store.drop(1)
    assert store.estimated_bytes() == brute_force()
    store.drop(1)  # idempotent
    store.drop(2)
    assert store.estimated_bytes() == 0


# ---------------------------------------------------------------------------
# Cluster integration

GROUPS = 4
PER_GROUP = 40


def populate_groups(service, client):
    """Index four keyword-disjoint file groups, commit, and let two
    heartbeat rounds deliver clean summaries to the Master."""
    vfs = service.vfs
    by_group = {}
    for g in range(GROUPS):
        d = f"/g{g}"
        vfs.mkdir(d)
        paths = []
        for i in range(PER_GROUP):
            p = f"{d}/tag{g}x_file{i:03d}.bin"
            vfs.write_file(p, 1024 * (4 ** g), pid=g + 1)
            paths.append(p)
        client.index_paths(paths, pid=g + 1)
        by_group[g] = paths
    client.flush_updates()
    service.advance(12.0)
    return by_group


def node_stat(service, attr):
    return sum(getattr(n, attr) for n in service.index_nodes.values())


def ino_of(service, path):
    return dict(service.vfs.namespace.files())[path].ino


def pending_location(service, client, ino):
    """(node, acg_id) of the cache holding an uncommitted op for ino."""
    for node in service.index_nodes.values():
        for acg_id in client._route_nodes:
            if any(op.file_id == ino for op in node.cache.pending_ops(acg_id)):
                return node, acg_id
    raise AssertionError(f"no pending op for file {ino}")


def test_pruned_search_equals_unpruned(indexed_service):
    service, client = indexed_service
    by_group = populate_groups(service, client)
    pruned_answer = client.search("keyword:tag0x")
    assert pruned_answer == sorted(by_group[0])
    assert service.registry.value("search.partitions_pruned") > 0
    assert node_stat(service, "prunes_validated") > 0
    # The oracle: the same query with pruning disabled.
    client.prune_searches = False
    assert client.search("keyword:tag0x") == pruned_answer


def test_bloom_false_positive_leg_is_searched_and_exact(indexed_service):
    service, client = indexed_service
    by_group = populate_groups(service, client)
    client.search("keyword:tag0x")  # populates the summary cache
    assert client._summaries
    # Force a universal false positive: every probe of an all-ones Bloom
    # filter reports "maybe present".
    for acg_id, snap in list(client._summaries.items()):
        client._summaries[acg_id] = dataclasses.replace(
            snap, bloom_bits=(1 << snap.bloom_m) - 1)
    searched0 = service.registry.value("search.partitions_searched")
    answer = client.search("keyword:tag3x")
    # Exact answer; the false-positive legs were searched, not pruned.
    assert answer == sorted(by_group[3])
    searched = service.registry.value("search.partitions_searched") - searched0
    # (An empty partition — a slab allocation leaves some — is pruned by
    # its file count whatever its Bloom filter says.)
    assert searched == sum(1 for snap in client._summaries.values()
                           if snap.file_count) == 2


def test_pending_uncommitted_update_is_never_pruned(indexed_service):
    service, client = indexed_service
    populate_groups(service, client)
    client.search("keyword:tag1x")  # caches clean (pre-update) summaries
    # A brand-new matching file, acknowledged but not yet committed; the
    # client's cached summary predates it and would prune its partition.
    path = "/g0/freshzzz_new.bin"
    service.vfs.write_file(path, 2048, pid=1)
    client.index_path(path, pid=1)
    fallbacks0 = node_stat(service, "prune_fallbacks")
    answer = client.search("keyword:freshzzz")
    assert answer == [path]
    # The owning node refused the stale skip because updates were pending.
    assert node_stat(service, "prune_fallbacks") > fallbacks0


def test_stale_summary_after_migration_fails_open(indexed_service):
    service, client = indexed_service
    by_group = populate_groups(service, client)
    client.search("keyword:tag0x")  # caches summaries + watermarks
    # Migrate a partition the tag0x query prunes; its summary (and the
    # watermark inside it) now names the *old* replica.
    ino = ino_of(service, by_group[3][0])
    acg_id = client._file_routes[ino]
    source = client._route_nodes[acg_id]
    target = next(n for n in service.index_nodes if n != source)
    service.master.migrate_partition(acg_id, target)
    client._refresh_routes()  # routes now point at the new replica
    fallbacks0 = service.index_nodes[target].prune_fallbacks
    answer = client.search("keyword:tag0x")
    assert answer == sorted(by_group[0])
    # The new replica rejected the stale-incarnation skip and searched.
    assert service.index_nodes[target].prune_fallbacks > fallbacks0


def test_second_client_agrees_and_a_commit_shows(indexed_service):
    service, client = indexed_service
    populate_groups(service, client)
    first = client.search("size>10k")
    assert first  # some legs really were searched
    # Another client's repeat: it holds no answers, so the nodes search
    # again, and find the same files.
    assert service.make_client().search("size>10k") == first
    # A committed update bumps the watermark: the first client's held
    # answer for that partition must not serve.
    path = "/g0/big_new_file.bin"
    service.vfs.write_file(path, 64 * 1024**2, pid=1)
    client.index_path(path, pid=1)
    client.flush_updates()
    service.advance(6.0)
    assert path in client.search("size>10k")


def test_time_dependent_queries_are_not_cached(indexed_service):
    """A time-dependent answer is never stamped, so the client holds no
    part of it and its repeat searches every partition again."""
    service, client = indexed_service
    populate_groups(service, client)
    searched = service.registry.counter("search.partitions_searched")
    searched0 = searched.value
    first = client.search("mtime<1day")
    searched1 = searched.value
    assert searched1 > searched0
    assert not any(held.parts for held in client._held.values())
    assert client.search("mtime<1day") == first
    assert searched.value - searched1 == searched1 - searched0


def test_pending_ops_accessor(indexed_service):
    service, client = indexed_service
    by_group = populate_groups(service, client)
    path = "/g0/pending_probe.bin"
    service.vfs.write_file(path, 2048, pid=1)
    client.index_path(path, pid=1)
    client.flush_updates()
    ino = ino_of(service, path)
    node, acg_id = pending_location(service, client, ino)
    node.cache.commit_all()
    assert node.cache.pending_ops(acg_id) == ()


def test_explain_skips_unowned_partitions(indexed_service):
    service, client = indexed_service
    populate_groups(service, client)
    predicate = parse_query("size>1m")
    all_acgs = sorted(client._route_nodes)
    for node in service.index_nodes.values():
        reported = [acg_id for acg_id, _ in
                    node.handle_explain(all_acgs, predicate)]
        assert all(node.owns(acg_id) for acg_id in reported)


def test_heartbeats_carry_summaries_and_master_versions_them(indexed_service):
    service, client = indexed_service
    populate_groups(service, client)
    table = service.master.summary_table(0)
    assert table.version > 0 and table.entries and not table.fresh
    assert all(not s.dirty for s in table.entries)
    # An up-to-date client gets a cheap "nothing changed" marker.
    again = service.master.summary_table(table.version)
    assert again.fresh and not again.entries
    # A node with pending updates marks the partition dirty in its next
    # heartbeat — clients must not prune on a dirty snapshot.
    path = "/g0/dirty_probe.bin"
    service.vfs.write_file(path, 2048, pid=1)
    client.index_path(path, pid=1)
    client.flush_updates()
    ino = ino_of(service, path)
    node, acg_id = pending_location(service, client, ino)
    heartbeat = node.make_heartbeat()
    dirty = {s.acg_id: s.dirty for s in heartbeat.summaries}
    assert dirty[acg_id] is True
