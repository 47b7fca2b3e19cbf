"""Write-ahead log framing/recovery and the lazy index cache."""

import pytest

from repro.cluster.cache import IndexCache
from repro.cluster.messages import IndexUpdate
from repro.cluster.wal import WriteAheadLog
from repro.errors import WalCorruption
from repro.sim.clock import SimClock
from repro.sim.disk import DiskDevice


# -- WAL ----------------------------------------------------------------------

def test_wal_append_replay_roundtrip():
    wal = WriteAheadLog()
    records = [(1, 10, "upsert", "/a", (("size", 5),)),
               (2, 20, "delete", None, ())]
    for record in records:
        wal.append(record)
    assert list(wal.replay()) == records
    assert wal.records_appended == 2


def test_wal_truncate():
    wal = WriteAheadLog()
    wal.append((1,))
    wal.truncate()
    assert list(wal.replay()) == []
    assert len(wal) == 0


def test_wal_torn_tail_is_dropped_silently():
    wal = WriteAheadLog()
    wal.append((1, "first"))
    wal.append((2, "second"))
    wal.simulate_torn_tail(3)
    assert list(wal.replay()) == [(1, "first")]


def test_wal_torn_header_is_dropped():
    wal = WriteAheadLog()
    wal.append((1, "only"))
    full = len(wal)
    wal.append((2, "gone"))
    wal.simulate_torn_tail(len(wal) - full - 2)  # leave 2 bytes of header
    assert list(wal.replay()) == [(1, "only")]


def test_wal_corrupt_tail_dropped_and_counted():
    """The final record garbled mid-write is a corrupt *tail*: replay
    drops it and counts the loss instead of refusing the whole log."""
    wal = WriteAheadLog()
    wal.append((1, "data"))
    wal.append((2, "more"))
    tail_start = len(wal)
    wal.append((3, "torn"))
    wal.corrupt_byte(tail_start + 10)
    assert list(wal.replay()) == [(1, "data"), (2, "more")]
    assert wal.replay_dropped == 1
    assert wal.replay_dropped_bytes == len(wal) - tail_start


def test_wal_mid_log_corruption_detected():
    """Corruption before the tail means the log is damaged, not torn."""
    wal = WriteAheadLog()
    wal.append((1, "data"))
    wal.append((2, "more"))
    wal.corrupt_byte(12)  # inside the first record's body
    with pytest.raises(WalCorruption):
        list(wal.replay())


def test_wal_torn_tail_dropped_and_counted():
    wal = WriteAheadLog()
    wal.append((1, "data"))
    wal.append((2, "more"))
    wal.simulate_torn_tail(3)
    assert list(wal.replay()) == [(1, "data")]
    assert wal.replay_dropped == 1
    # A later replay over the same (still-torn) log counts afresh.
    assert list(wal.replay()) == [(1, "data")]
    assert wal.replay_dropped == 1


def test_wal_charges_disk_appends():
    disk = DiskDevice(SimClock())
    wal = WriteAheadLog(disk)
    wal.append((1, "x"))
    wal.append((2, "y"))
    assert disk.stats.writes == 2
    # Second append continues the log sequentially: at most one seek.
    assert disk.stats.seeks == 1


# -- IndexCache ---------------------------------------------------------------------

def make_cache(timeout=5.0):
    committed = []
    cache = IndexCache(lambda acg, ups: committed.append((acg, list(ups))),
                       timeout_s=timeout)
    return cache, committed


def up(fid):
    return IndexUpdate.upsert(fid, {"size": fid})


def test_cache_timeout_validation():
    with pytest.raises(ValueError):
        IndexCache(lambda a, u: None, timeout_s=0)


def test_cache_holds_until_timeout():
    cache, committed = make_cache()
    cache.add(1, up(10), now=0.0)
    assert cache.commit_due(now=4.9) == 0
    assert committed == []
    assert cache.commit_due(now=5.0) == 1
    assert committed == [(1, [up(10)])]
    assert len(cache) == 0


def test_cache_batches_per_acg():
    cache, committed = make_cache()
    cache.add(1, up(10), now=0.0)
    cache.add(1, up(11), now=1.0)
    cache.add(2, up(20), now=4.0)
    assert cache.commit_due(now=5.0) == 2   # only ACG 1 is due
    assert committed == [(1, [up(10), up(11)])]
    assert cache.commit_due(now=9.0) == 1


def test_timeout_measured_from_oldest_entry():
    cache, _ = make_cache()
    cache.add(1, up(10), now=0.0)
    cache.add(1, up(11), now=4.9)   # does not reset the clock
    assert cache.commit_due(now=5.0) == 2


def test_search_commit_is_immediate_and_scoped():
    cache, committed = make_cache()
    cache.add(1, up(10), now=0.0)
    cache.add(2, up(20), now=0.0)
    assert cache.commit_for_search(1) == 1
    assert committed == [(1, [up(10)])]
    assert cache.pending_acgs() == [2]


def test_search_commit_on_empty_acg():
    cache, committed = make_cache()
    assert cache.commit_for_search(42) == 0
    assert committed == []


def test_commit_all():
    cache, committed = make_cache()
    cache.add(1, up(1), now=0.0)
    cache.add(2, up(2), now=0.0)
    assert cache.commit_all() == 2
    assert len(cache) == 0


def test_stats_track_commit_reasons():
    cache, _ = make_cache()
    cache.add(1, up(1), now=0.0)
    cache.commit_due(now=10.0)
    cache.add(2, up(2), now=10.0)
    cache.commit_for_search(2)
    assert cache.stats.timeout_commits == 1
    assert cache.stats.search_commits == 1
    assert cache.stats.updates_cached == 2
    assert cache.stats.updates_committed == 2
