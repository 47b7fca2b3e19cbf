"""The Master metadata WAL: append/replay, torn tails, term fencing,
checkpoint truncation, and the standby tail protocol's building blocks."""

import pytest

from repro.cluster.meta_wal import MetaState, MetaWal
from repro.errors import SimulationError, StaleMasterTerm


def populated_records():
    """A representative mutation history (term, kind, *payload)."""
    return [
        ("term", 1, "master"),
        ("member", "in1"),
        ("member", "in2"),
        ("index", "by_size", "btree", ("size",)),
        ("newpart", 1, "in1"),
        ("file", 101, 1),
        ("file", 102, 1),
        ("epoch", 2, 1),
        ("place", 1, "in2"),
        ("repl", 1, 3, ("in1",)),
        ("sync", 1, 1),
        ("finish", "in1", 1, "in2", 2),
    ]


class TestMetaState:
    def test_apply_and_snapshot_roundtrip(self):
        state = MetaState()
        for record in populated_records():
            state.apply((1,) + tuple(record))
        restored = MetaState.from_snapshot(state.snapshot())
        assert restored.snapshot() == state.snapshot()
        assert restored.partitions.get(1).node == "in2"
        assert restored.partitions.get(1).files == {101, 102}
        assert restored.partitions.partition_of(101) == 1
        assert restored.partitions.epoch == 2
        assert restored.partitions.next_id == 2
        assert restored.specs["by_size"].attrs == ("size",)
        repl = restored.replica_sets.get(1)
        assert (repl.repl_epoch, repl.followers) == (3, ("in1",))
        assert restored.syncs == {1: True}
        assert restored.finishes == {("in1", 1): ("in2", 2)}

    def test_file_move_and_unfile(self):
        state = MetaState()
        state.apply((1, "newpart", 1, "in1"))
        state.apply((1, "newpart", 2, "in2"))
        state.apply((1, "file", 7, 1))
        state.apply((1, "file", 7, 2))  # move
        assert state.partitions.partition_of(7) == 2
        assert 7 not in state.partitions.get(1).files
        state.apply((1, "unfile", 7))
        assert state.partitions.partition_of(7) is None

    def test_droppart_forgets_files(self):
        state = MetaState()
        state.apply((1, "newpart", 1, "in1"))
        state.apply((1, "newpart", 2, "in1"))
        state.apply((1, "file", 7, 1))
        # The same rule as the live map: only an emptied partition drops
        # (a merge moves every file out first).
        with pytest.raises(ValueError):
            state.apply((1, "droppart", 1))
        state.apply((1, "file", 7, 2))
        state.apply((1, "droppart", 1))
        assert [p.partition_id for p in state.partitions.partitions()] == [2]
        assert state.partitions.partition_of(7) == 2
        # Ids are never reused, even after a drop.
        assert state.partitions.next_id == 3

    def test_unknown_kind_raises(self):
        # apply is the Master's write path: a kind nobody interprets
        # would be a mutation that silently never happens.
        state = MetaState()
        with pytest.raises(SimulationError, match="from_the_future"):
            state.apply((1, "from_the_future", "whatever"))
        assert state.snapshot() == MetaState().snapshot()

    def test_newpart_out_of_order_raises(self):
        state = MetaState()
        with pytest.raises(SimulationError):
            state.apply((1, "newpart", 2, "in1"))


class TestMetaWal:
    def _filled(self):
        wal = MetaWal()
        for record in populated_records():
            wal.append(1, tuple(record))
        return wal

    def test_append_replay_is_deterministic(self):
        wal = self._filled()
        state_a = wal.recover()
        state_b = wal.recover()
        assert state_a.snapshot() == state_b.snapshot()
        assert state_a.partitions.get(1).files == {101, 102}
        assert wal.seq == len(populated_records())

    def test_torn_tail_drops_only_the_torn_record(self):
        wal = self._filled()
        wal.simulate_torn_tail(5)
        state = wal.recover()
        assert wal.replay_dropped_total == 1
        # The surviving prefix replays intact: the torn record was the
        # final "finish" intent, so everything before it is present.
        assert state.finishes == {}
        assert state.partitions.get(1).node == "in2"
        assert wal.seq == len(populated_records()) - 1

    def test_append_fences_stale_terms(self):
        wal = MetaWal()
        wal.append(2, ("term", 2, "master2"))
        with pytest.raises(StaleMasterTerm) as exc:
            wal.append(1, ("member", "in1"))
        assert exc.value.term == 2
        # Equal and higher terms still append.
        wal.append(2, ("member", "in1"))
        wal.append(3, ("term", 3, "master"))
        assert wal.highest_term == 3

    def test_install_fences_stale_snapshots(self):
        wal = MetaWal()
        wal.append(3, ("term", 3, "master"))
        image = MetaState().snapshot()
        with pytest.raises(StaleMasterTerm):
            wal.install(image, seq=10, term=2)
        wal.install(image, seq=10, term=3)
        assert wal.seq == 10 and wal.base == 10

    def test_checkpoint_truncates_and_seq_survives(self):
        wal = self._filled()
        seq_before = wal.seq
        wal.checkpoint(wal.recover().snapshot())
        assert wal.seq == seq_before          # never resets
        assert wal.base == seq_before
        assert wal.entries == []
        wal.append(1, ("member", "in3"))
        assert wal.seq == seq_before + 1
        # A tail request from before the checkpoint must re-bootstrap.
        assert wal.entries_since(seq_before - 1) is None
        assert wal.entries_since(seq_before) == [(1, "member", "in3")]
        # Recovery from snapshot + post-checkpoint records replays all.
        state = wal.recover()
        assert "in3" in state.members and "in1" in state.members

    def test_entries_since_empty_tail(self):
        wal = self._filled()
        assert wal.entries_since(wal.seq) == []
        assert len(wal.entries_since(0)) == wal.seq
