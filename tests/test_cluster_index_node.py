"""IndexNode: update/commit/search paths, splits, migration, recovery."""

import pytest

from repro.cluster.index_node import IndexNode
from repro.cluster.messages import IndexUpdate, UpdateBatch
from repro.core.partitioner import PartitioningPolicy
from repro.errors import StaleRoute, UnknownAcg
from repro.indexstructures import IndexKind
from repro.query.ast import matches
from repro.query.parser import parse_query
from repro.query.planner import IndexSpec
from repro.sim.clock import SimClock
from repro.sim.machine import Machine


@pytest.fixture
def node():
    node = IndexNode("in1", Machine(SimClock()), cache_timeout_s=5.0)
    node.handle_create_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    node.handle_create_index(IndexSpec("by_kw", IndexKind.HASH, ("keyword",)))
    return node


def up(fid, size, path=None):
    return IndexUpdate.upsert(fid, {"size": size},
                              path=path or f"/data/f{fid}.bin")


EPOCH = 1


def park(node, acg_id, updates):
    """One partition's updates as an envelope of one; returns its ack.
    The Master's grant comes first: no update creates a partition."""
    node.handle_own_partition(acg_id, EPOCH)
    (outcome,) = node.handle_index_update(
        [UpdateBatch(acg_id, tuple(updates), EPOCH)])
    assert outcome.ok, outcome.error
    return outcome.value


def search_ids(node, acg_ids, query):
    reply = node.handle_search(acg_ids, parse_query(query), epoch=EPOCH)
    assert reply.not_owned == ()
    out = set()
    for r in reply.results:
        out |= r.file_ids
    return out


def test_update_is_cached_not_committed(node):
    park(node, 1, [up(10, 100)])
    assert len(node.cache) == 1
    assert node.replica(1).file_count == 0


def test_update_appends_to_wal(node):
    park(node, 1, [up(10, 100), up(11, 200)])
    assert node.wal.records_appended == 2


def test_search_forces_commit_and_sees_update(node):
    park(node, 1, [up(10, 100)])
    assert search_ids(node, [1], "size>=100") == {10}
    assert len(node.cache) == 0


def test_search_only_commits_queried_acg(node):
    park(node, 1, [up(10, 100)])
    park(node, 2, [up(20, 100)])
    search_ids(node, [1], "size>0")
    assert node.cache.pending_acgs() == [2]


def test_tick_commits_after_timeout(node):
    park(node, 1, [up(10, 100)])
    node.machine.clock.charge(5.1)
    assert node.tick() == 1
    assert node.replica(1).file_count == 1
    # WAL is truncated once nothing is pending.
    assert len(node.wal) == 0


def test_tick_before_timeout_is_noop(node):
    park(node, 1, [up(10, 100)])
    node.machine.clock.charge(1.0)
    assert node.tick() == 0


def test_reupsert_replaces_old_index_entry(node):
    park(node, 1, [up(10, 100)])
    park(node, 1, [up(10, 5000)])
    assert search_ids(node, [1], "size==100") == set()
    assert search_ids(node, [1], "size==5000") == {10}


def test_delete_removes_from_index_and_store(node):
    park(node, 1, [up(10, 100)])
    park(node, 1, [IndexUpdate.delete(10)])
    assert search_ids(node, [1], "size>0") == set()
    assert node.replica(1).file_count == 0


def test_kd_index_tolerates_non_numeric_attributes(node):
    node.handle_create_index(IndexSpec("kd", IndexKind.KDTREE, ("size", "rank")))
    park(node, 1, [
        IndexUpdate.upsert(10, {"size": 100, "rank": 2.0}, path="/a"),
        IndexUpdate.upsert(11, {"size": 200, "rank": "gold"}, path="/b"),
        IndexUpdate.upsert(12, {"size": 300}, path="/c"),
    ])
    # Search still works: numeric rows via the KD index, the rest via
    # residual filtering on other paths.
    assert search_ids(node, [1], "size>0") == {10, 11, 12}
    assert search_ids(node, [1], "size>0 & rank>1") == {10}


def test_keyword_index_updates_on_path(node):
    park(node, 1, [up(10, 100, path="/home/firefox/prefs.js")])
    assert search_ids(node, [1], "keyword:firefox") == {10}


def test_search_unknown_acg_skipped(node):
    reply = node.handle_search([99], parse_query("size>0"), epoch=EPOCH)
    assert reply.results == [] and reply.not_owned == (99,)


def test_no_data_path_rpc_creates_a_partition(node):
    """An update, a search or an ACG fragment for a partition this node
    does not host is NACKed, named or dropped — never hosted."""
    park(node, 1, [up(10, 100)])
    (outcome,) = node.handle_index_update(
        [UpdateBatch(2, (up(20, 100),), EPOCH)])
    assert isinstance(outcome.error, StaleRoute)
    reply = node.handle_search([1, 2], parse_query("size>0"), epoch=EPOCH,
                               pruned={3: ("in1", 1, 0)})
    assert reply.not_owned == (2, 3)
    assert [r.acg_id for r in reply.results] == [1]
    node.handle_flush_acg([(2, [(20, 21, 1)]), (1, [(10, 11, 1)])])
    assert node.replica(1).graph.weight(10, 11) == 1
    assert sorted(node.replicas) == [1] and len(node.cache) == 0


def test_replica_unknown_without_create(node):
    with pytest.raises(UnknownAcg):
        node.replica(7)


def test_create_index_backfills_existing_data(node):
    park(node, 1, [up(10, 100)])
    node.cache.commit_all()
    node.handle_create_index(IndexSpec("kd", IndexKind.KDTREE, ("size", "mtime")))
    replica = node.replica(1)
    assert "kd" in replica.indexes
    # The backfilled KD index only covers files with both attributes; our
    # update had no mtime, so it stays out of the KD tree but remains
    # searchable via by_size.
    assert search_ids(node, [1], "size>0") == {10}


def test_heartbeat_reports_sizes(node):
    park(node, 1, [up(10, 100), up(11, 100)])
    node.cache.commit_all()
    heartbeat = node.make_heartbeat()
    assert heartbeat.node == "in1"
    assert dict(heartbeat.acg_sizes)[1] == 2


def test_compute_split_balanced(node):
    updates = [up(i, 100) for i in range(40)]
    park(node, 1, updates)
    # Chain ACG: 0-1-2-...-39.
    records = [(i, i + 1, 1) for i in range(39)]
    node.handle_flush_acg([(1, records)])
    halves = node.handle_compute_split(1, PartitioningPolicy(split_threshold=20))
    assert len(halves[0]) + len(halves[1]) == 40
    assert abs(len(halves[0]) - len(halves[1])) <= 6


def test_extract_install_migration_roundtrip(node):
    park(node, 1, [up(i, 100 * i) for i in range(1, 6)])
    node.handle_flush_acg([(1, [(1, 2, 3), (3, 4, 1)])])
    segment = node.handle_extract_partition(1, [1, 2])
    # Source no longer serves the moved files.
    assert search_ids(node, [1], "size>0") == {3, 4, 5}
    other = IndexNode("in2", Machine(SimClock()))
    other.handle_create_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    assert other.handle_install_partition(7, segment) == (1, 2)
    assert search_ids(other, [7], "size>0") == {1, 2}
    # The moved ACG fragment came along.
    assert other.replica(7).graph.weight(1, 2) == 3


QUERIES = ("size>0", "size>=300", "size<250", "keyword:f2",
           "keyword:data & size>150")


def scan(rows, query, now=0.0):
    """Brute-force reference: ``matches()`` over ``{file_id: (attrs,
    keywords)}`` rows captured from a replica's store."""
    predicate = parse_query(query)
    return {fid for fid, (attrs, keywords) in rows.items()
            if matches(predicate, attrs, keywords, now)}


def rows_of(replica):
    return {fid: (dict(replica.store.attrs(fid)), replica.store.keywords(fid))
            for fid in replica.store.file_ids()}


def test_extracted_subset_installs_exactly_and_leaves_the_complement(node):
    park(node, 1, [up(i, 100 * i) for i in range(1, 7)])
    node.cache.commit_all()
    truth = rows_of(node.replica(1))
    moving = {2, 3, 5}
    # 99 is an id the Master asked to move but this node does not host:
    # it is left out, not installed on the target as an empty row.
    segment = node.handle_extract_partition(1, sorted(moving | {99}))
    other = IndexNode("in2", Machine(SimClock()))
    other.handle_create_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    other.handle_create_index(IndexSpec("by_kw", IndexKind.HASH, ("keyword",)))
    assert set(other.handle_install_partition(7, segment)) == moving
    assert 99 not in other.replica(7).store
    assert other.replica(7).file_count == len(moving)
    for query in QUERIES:
        assert search_ids(other, [7], query) == scan(
            {f: r for f, r in truth.items() if f in moving}, query), query
        assert search_ids(node, [1], query) == scan(
            {f: r for f, r in truth.items() if f not in moving}, query), query


def test_install_into_a_non_empty_replica_merges(node):
    """The merge path: installed rows join what the partition already
    holds, and the commit watermark moves by exactly the installed
    count (summaries and cached results are versioned by it)."""
    park(node, 1, [up(i, 100 * i) for i in range(1, 4)])
    park(node, 2, [up(i, 100 * i) for i in range(4, 7)])
    node.cache.commit_all()
    truth = {**rows_of(node.replica(1)), **rows_of(node.replica(2))}
    applied = node.replica(1).applied
    segment = node.handle_extract_partition(2)
    assert node.handle_install_partition(1, segment) == (4, 5, 6)
    assert node.replica(1).applied == applied + 3
    for query in QUERIES:
        assert search_ids(node, [1], query) == scan(truth, query), query


def test_drop_partition(node):
    park(node, 1, [up(10, 100)])
    node.cache.commit_all()
    node.handle_drop_partition(1)
    with pytest.raises(UnknownAcg):
        node.replica(1)


def test_wal_recovery_after_crash(node):
    park(node, 1, [up(10, 100), up(11, 200)])
    park(node, 2, [up(20, 300)])
    # Crash: the in-memory cache is lost, the WAL survives.
    crashed = IndexNode("in1b", Machine(SimClock()))
    crashed.handle_create_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    crashed.wal._buffer = bytearray(node.wal._buffer)
    assert crashed.recover_from_wal() == 3
    assert search_ids(crashed, [1], "size>0") == {10, 11}
    assert search_ids(crashed, [2], "size>0") == {20}
