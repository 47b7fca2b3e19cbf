"""Service background machinery: periodic checkpoints, heartbeat-driven
splits over virtual time, and shared-storage hygiene."""

import pytest

from repro.cluster import PropellerService
from repro.cluster.persistence import (PROPELLER_ROOT, list_checkpoints,
                                       replica_path)
from repro.core.partitioner import PartitioningPolicy
from repro.indexstructures import IndexKind


def build():
    service = PropellerService(
        num_index_nodes=2,
        policy=PartitioningPolicy(split_threshold=40, cluster_target=15))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    return service, client


def populate(service, client, n=30, pid=1):
    service.vfs.mkdir("/d", parents=True) if not service.vfs.exists("/d") else None
    start = service.vfs.namespace.file_count
    for i in range(n):
        path = f"/d/g{pid}_{i:03d}"
        service.vfs.write_file(path, 100 + i, pid=pid)
        client.index_path(path, pid=pid)
    client.flush_updates()


def test_periodic_checkpoints_appear_on_shared_storage():
    service, client = build()
    populate(service, client)
    assert not service.vfs.exists(PROPELLER_ROOT)
    service.advance(35.0)     # past the 30-s checkpoint period
    total = sum(len(list_checkpoints(service.vfs, name))
                for name in service.index_nodes)
    assert total >= 1
    assert service.master.checkpoints_written >= 1


def test_periodic_heartbeats_split_over_time():
    service, client = build()
    # One process chains 60 files into one partition (> threshold 40).
    # The Master only learns the oversize from the heartbeat round — it
    # no longer sees per-file placement on the update path.
    populate(service, client, n=60, pid=7)
    service.advance(6.0)      # one heartbeat round reports, then splits
    assert len(service.master.splits) >= 1
    sizes = [service.master._effective_size(p)
             for p in service.master.partitions.partitions()]
    assert max(sizes) <= 40
    # Results still complete after the background split.
    got = client.search("size>0")
    assert len(got) == 60


def test_checkpoint_files_are_system_owned_and_invisible_to_acg():
    service, client = build()
    populate(service, client)
    service.advance(35.0)
    # Shared-storage writes must not leak into any client's ACG or the
    # partition map.
    assert client.access_manager.peek().vertex_count <= 60
    for path, inode in service.vfs.namespace.files(PROPELLER_ROOT):
        assert service.master.partitions.partition_of(inode.ino) is None


def test_default_client_never_indexes_index_node_checkpoints():
    """Checkpoints land on the VFS the client watches.  Written as the
    system they are neither dirty files nor ACG vertices, so a client
    with no ``pid_filter`` cannot index them — and removing one is not an
    application unlink."""
    service, client = build()
    populate(service, client)
    assert client.index_dirty() == 0              # index_path spent their dirt
    client.flush_updates()
    vertices = client.access_manager.peek().vertex_count
    service.advance(65.0)                         # two checkpoint rounds
    assert list(service.vfs.namespace.files(PROPELLER_ROOT))
    assert client.index_dirty() == 0
    assert client.access_manager.peek().vertex_count == vertices
    for query in ("size>=0", "keyword:ckpt", "keyword:propeller"):
        assert not [p for p in client.search(query)
                    if p.startswith(PROPELLER_ROOT + "/")]
    assert len(client.search("size>=0")) == 30
    # A finished migration removes the source's checkpoint: the client
    # must not take that for an application unlink.
    unlinked = []
    client.access_manager._unlink_cb = lambda path, inode: unlinked.append(path)
    moved = next(p for p in service.master.partitions.partitions()
                 if p.node and list_checkpoints(service.vfs, p.node))
    target = next(n for n in service.master.index_nodes if n != moved.node)
    stale = replica_path(moved.node, moved.partition_id)
    assert service.vfs.exists(stale)
    service.master.migrate_partition(moved.partition_id, target)
    assert not service.vfs.exists(stale)
    assert unlinked == []


def test_repeated_advance_is_stable():
    service, client = build()
    populate(service, client)
    for _ in range(5):
        service.advance(31.0)
    # Checkpoints overwrite in place: one file per (node, ACG), not one
    # per checkpoint round.
    for name in service.index_nodes:
        paths = list_checkpoints(service.vfs, name)
        assert len(paths) == len(service.index_nodes[name].replicas)


def test_stats_network_counters_monotone():
    service, client = build()
    populate(service, client)
    first = service.stats()["network_messages"]
    client.search("size>0")
    second = service.stats()["network_messages"]
    assert second > first
