"""MiniSQL centralized baseline."""

import pytest

from repro.baselines.sqldb import MiniSQL
from repro.sim.clock import SimClock
from repro.sim.machine import Machine


@pytest.fixture
def db():
    return MiniSQL(Machine(SimClock()), batch_size=8)


def test_insert_query_roundtrip(db):
    db.insert_file(1, {"size": 100, "mtime": 5.0}, path="/a/f1")
    db.insert_file(2, {"size": 9000, "mtime": 6.0}, path="/a/f2")
    db.flush()
    assert db.query("size>1000") == {2}
    assert db.query("size>0") == {1, 2}
    assert len(db) == 2


def test_query_flushes_pending_batch(db):
    db.insert_file(1, {"size": 100, "mtime": 0.0}, path="/f")
    # No explicit flush: the query must still see the row (group commit
    # is forced by the statement).
    assert db.query("size==100") == {1}


def test_batch_commits_when_full():
    db = MiniSQL(Machine(SimClock()), batch_size=3)
    for i in range(3):
        db.insert_file(i, {"size": i, "mtime": 0.0})
    assert db.rows_written == 3


def test_update_replaces_index_entry(db):
    db.insert_file(1, {"size": 100, "mtime": 0.0}, path="/f")
    db.insert_file(1, {"size": 999, "mtime": 1.0}, path="/f")
    db.flush()
    assert db.query("size==100") == set()
    assert db.query("size==999") == {1}


def test_delete(db):
    db.insert_file(1, {"size": 100, "mtime": 0.0}, path="/f")
    db.delete_file(1)
    db.flush()
    assert db.query("size>0") == set()
    assert len(db) == 0


def test_keyword_table(db):
    db.insert_file(1, {"size": 1, "mtime": 0.0}, path="/home/firefox/prefs.js")
    db.insert_file(2, {"size": 1, "mtime": 0.0}, path="/var/log/apache.log")
    db.flush()
    assert db.query("keyword:firefox") == {1}
    assert db.query_paths("keyword:log") == ["/var/log/apache.log"]


def test_paper_query_shapes(db):
    now = db.machine.clock.now()
    db.insert_file(1, {"size": 2 * 1024**3, "mtime": now}, path="/new/big")
    db.insert_file(2, {"size": 10, "mtime": now}, path="/new/small")
    db.insert_file(3, {"size": 3 * 1024**3, "mtime": now - 10 * 86400},
                   path="/old/big")
    db.flush()
    assert db.query("size>1g & mtime<1day") == {1}


def test_queries_charge_time(db):
    for i in range(100):
        db.insert_file(i, {"size": i, "mtime": 0.0}, path=f"/f{i}")
    db.flush()
    t0 = db.machine.clock.now()
    db.query("size>50")
    assert db.machine.clock.now() > t0


def test_every_candidate_row_examined_is_a_row_read(db):
    """What makes candidate verification expensive on a big table: the
    executor's bulk evaluation must not bypass the paged store — one
    buffer-pool touch per candidate row, matching or not."""
    for i in range(100):
        db.insert_file(i, {"size": i, "mtime": float(i % 2)}, path=f"/f{i}")
    db.flush()
    touched = []
    pool_touch = db.buffer_pool.touch
    db.buffer_pool.touch = lambda ns, page, write=False: (
        touched.append(page) if ns == "rows" else None,
        pool_touch(ns, page, write))[1]
    assert db.query("size>=50 & mtime==1") == set(range(51, 100, 2))
    assert sorted(touched) == sorted(i // 32 for i in range(50, 100))


def test_global_index_cost_grows_with_dataset():
    """The structural contrast with Propeller: per-update cost grows with
    total dataset size (deeper tree, colder buffer pool)."""
    def cost_per_update(n_rows):
        machine = Machine(SimClock())
        db = MiniSQL(machine, buffer_pool_bytes=1024**2, batch_size=64)
        for i in range(n_rows):
            db.insert_file(i, {"size": i, "mtime": float(i)}, path=f"/f{i}")
        db.flush()
        t0 = machine.clock.now()
        for i in range(200):
            db.insert_file(n_rows + i, {"size": i, "mtime": 0.0}, path=f"/g{i}")
        db.flush()
        return machine.clock.now() - t0

    assert cost_per_update(8000) > cost_per_update(500)
