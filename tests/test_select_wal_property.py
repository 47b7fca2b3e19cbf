"""Projection API and WAL record round-trip properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PropellerService
from repro.cluster.wal import WriteAheadLog
from repro.indexstructures import IndexKind


def make_service():
    service = PropellerService(num_index_nodes=2)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    vfs = service.vfs
    vfs.mkdir("/d")
    for i in range(5):
        path = f"/d/f{i}"
        vfs.write_file(path, (i + 1) * 1000, pid=1)
        vfs.setattr(path, "team", "alpha" if i % 2 else "beta")
        client.index_path(path, pid=1)
    client.flush_updates()
    return service, client


def test_select_returns_projected_rows():
    service, client = make_service()
    rows = client.select("size>2000", ["size", "team"])
    assert [r["path"] for r in rows] == ["/d/f2", "/d/f3", "/d/f4"]
    assert rows[0] == {"path": "/d/f2", "size": 3000, "team": "beta"}
    assert rows[1]["team"] == "alpha"


def test_select_missing_attribute_is_none():
    service, client = make_service()
    rows = client.select("size>4000", ["nonexistent"])
    assert rows == [{"path": "/d/f4", "nonexistent": None}]


def test_select_reflects_live_attribute_values():
    """Projection reads ground truth, so even attributes that are not
    indexed come back current."""
    service, client = make_service()
    service.vfs.setattr("/d/f4", "team", "gamma")
    rows = client.select("size>4000", ["team"])
    assert rows[0]["team"] == "gamma"


def test_select_empty_result():
    service, client = make_service()
    assert client.select("size>10g", ["size"]) == []


# -- WAL property -----------------------------------------------------------------

_VALUE = st.one_of(st.integers(-2**40, 2**40), st.floats(allow_nan=False),
                   st.text(max_size=12), st.none(),
                   st.tuples(st.integers(0, 9), st.text(max_size=4)))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(_VALUE, _VALUE, _VALUE), max_size=30))
def test_property_wal_roundtrip(records):
    wal = WriteAheadLog()
    for record in records:
        wal.append(record)
    assert list(wal.replay()) == records


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(_VALUE, _VALUE), min_size=1, max_size=20),
       st.integers(1, 40))
def test_property_wal_torn_tail_is_prefix(records, torn):
    """However many tail bytes a crash chops off, replay yields an exact
    prefix of what was appended — never garbage, never reordering."""
    wal = WriteAheadLog()
    for record in records:
        wal.append(record)
    wal.simulate_torn_tail(min(torn, len(wal) - 1))
    replayed = list(wal.replay())
    assert replayed == records[:len(replayed)]


# -- group-commit WAL properties ---------------------------------------------------

from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from tests.conftest import whole_node


class GroupCommitWalMachine(RuleBasedStateMachine):
    """Mixed per-update and batch records under crash injection.

    Invariants: replay always yields an exact *record* prefix of what
    was appended (a torn batch frame disappears whole — group commit's
    atomic unit is the envelope, so a partially-visible batch is
    impossible), and the fsync counter tracks frames, not updates.
    """

    def __init__(self):
        super().__init__()
        self.wal = WriteAheadLog()
        self.appended = []
        self.next_id = 0

    def _payload(self, acg, fid):
        return (acg, fid, "upsert", f"/f{fid}", (("size", fid),))

    @rule(acg=st.integers(0, 2))
    def append_one(self, acg):
        record = self._payload(acg, self.next_id)
        self.next_id += 1
        self.wal.append(record)
        self.appended.append(record)

    @rule(acg=st.integers(0, 2), n=st.integers(1, 6))
    def append_batch(self, acg, n):
        inner = tuple(self._payload(acg, self.next_id + i) for i in range(n))
        self.next_id += n
        self.wal.append_batch(acg, inner)
        self.appended.append((WriteAheadLog.BATCH_TAG, acg, inner))

    @rule(torn=st.integers(1, 60))
    def crash_with_torn_tail(self, torn):
        survivors_before = len(list(self.wal.replay()))
        self.wal.simulate_torn_tail(min(torn, max(0, len(self.wal) - 1)))
        replayed = list(self.wal.replay())
        # A torn tail loses whole records off the end — the decodable
        # prefix — and a batch record either survives intact or not at
        # all: no replay ever sees part of an envelope.
        assert replayed == self.appended[:len(replayed)]
        assert len(replayed) <= survivors_before
        # Recovery compacts the log (sheds the torn fragment) before
        # any new traffic lands; mirror that here.
        compacted = WriteAheadLog()
        for record in replayed:
            if record[0] == WriteAheadLog.BATCH_TAG:
                compacted.append_batch(record[1], record[2])
            else:
                compacted.append(record)
        self.wal = compacted
        self.appended = replayed

    @invariant()
    def replay_is_exact(self):
        assert list(self.wal.replay()) == self.appended

    @invariant()
    def fsyncs_count_frames_not_updates(self):
        # One simulated fsync per frame since the last compaction —
        # however many updates a batch frame carries.
        assert self.wal.fsyncs == len(self.appended)


TestGroupCommitWal = GroupCommitWalMachine.TestCase
TestGroupCommitWal.settings = settings(max_examples=30, deadline=None,
                                       stateful_step_count=25)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5)),
                min_size=1, max_size=12),
       st.integers(0, 80),
       st.lists(st.integers(0, 40), min_size=3, max_size=3))
def test_property_batch_replay_idempotent_vs_watermarks(ops, torn, committed):
    """Crash replay through the real recovery path: whatever prefix of
    each ACG's updates was already committed (the durable watermark)
    must not be re-applied, and a batch straddling the watermark is
    sliced, not duplicated."""
    node = whole_node("r")
    fid = 0
    for acg, n in ops:
        n = max(n, 1)  # a one-update envelope is still a batch frame
        node.wal.append_batch(acg, tuple(
            (acg, fid + i, "upsert", f"/f{fid + i}", (("size", fid + i),))
            for i in range(n)))
        fid += n
    node.wal.simulate_torn_tail(min(torn, max(0, len(node.wal) - 1)))
    # Flatten the records that survived the tear into per-ACG streams.
    survived = {0: [], 1: [], 2: []}
    for _tag, acg, batch in node.wal.replay():
        survived[acg].extend(r[1] for r in batch)
    # Pretend a prefix of each ACG's updates had already committed.
    marks = {acg: min(committed[acg], len(survived[acg]))
             for acg in survived}
    node._wal_commit_counts = dict(marks)
    recovered = node.recover_from_wal()
    expected = {acg: ids[marks[acg]:] for acg, ids in survived.items()}
    assert recovered == sum(len(ids) for ids in expected.values())
    for acg, ids in expected.items():
        replica = node.replicas.get(acg)
        got = sorted(replica.store.file_ids()) if replica else []
        assert got == sorted(ids)
