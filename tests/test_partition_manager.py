"""Partition lifecycle bookkeeping (the Master Node's metadata)."""

import pytest

from repro.core.partition_manager import PartitionManager
from repro.errors import UnknownAcg


def test_new_partition_and_lookup():
    manager = PartitionManager()
    partition = manager.new_partition(files=[1, 2, 3], node="in1")
    assert partition.size == 3
    assert manager.partition_of(2) == partition.partition_id
    assert manager.get(partition.partition_id).node == "in1"


def test_unknown_partition_raises():
    with pytest.raises(UnknownAcg):
        PartitionManager().get(99)


def test_add_file_moves_between_partitions():
    manager = PartitionManager()
    a = manager.new_partition(files=[1])
    b = manager.new_partition()
    manager.add_file(b.partition_id, 1)
    assert manager.partition_of(1) == b.partition_id
    assert a.size == 0
    assert b.size == 1


def test_add_file_same_partition_is_noop():
    manager = PartitionManager()
    a = manager.new_partition(files=[1])
    manager.add_file(a.partition_id, 1)
    assert a.size == 1


def test_remove_file():
    manager = PartitionManager()
    a = manager.new_partition(files=[1, 2])
    assert manager.remove_file(1) == a.partition_id
    assert manager.partition_of(1) is None
    assert a.size == 1
    assert manager.remove_file(99) is None


def test_node_load():
    manager = PartitionManager()
    manager.new_partition(files=[1, 2, 3], node="a")
    manager.new_partition(files=[4], node="b")
    assert manager.node_load("a") == 3
    assert manager.node_load("b") == 1
    assert manager.node_load("c") == 0


def test_drop_partition_requires_empty():
    manager = PartitionManager()
    partition = manager.new_partition(files=[1])
    with pytest.raises(ValueError):
        manager.drop_partition(partition.partition_id)
    manager.remove_file(1)
    manager.drop_partition(partition.partition_id)
    with pytest.raises(UnknownAcg):
        manager.get(partition.partition_id)


def test_records_roundtrip_preserves_ids():
    manager = PartitionManager()
    a = manager.new_partition(files=[1, 2], node="x")
    manager.new_partition(files=[3])
    dropped = manager.new_partition()
    manager.drop_partition(dropped.partition_id)
    manager.bump_epoch(5)
    clone = PartitionManager.from_records(
        manager.to_records(), epoch=manager.epoch, next_id=manager.next_id)
    assert clone.partition_of(1) == a.partition_id
    assert clone.get(a.partition_id).node == "x"
    assert clone.epoch == 5
    # Ids continue past every id ever issued, the dropped one included.
    fresh = clone.new_partition()
    assert fresh.partition_id == dropped.partition_id + 1
