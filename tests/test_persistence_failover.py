"""Shared-storage persistence and Index-Node failover."""

import pytest

from repro.cluster import PropellerService
from repro.cluster.persistence import (
    list_checkpoints,
    read_checkpoint,
    replica_path,
    write_checkpoint,
)
from repro.cluster.segments import decode_segment, encode_segment
from repro.core.partitioner import PartitioningPolicy
from repro.errors import ClusterError, SegmentCorruption, UnknownIndexNode
from repro.indexstructures import IndexKind


def build(nodes=3):
    service = PropellerService(
        num_index_nodes=nodes,
        policy=PartitioningPolicy(split_threshold=500, cluster_target=60))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    client.create_index("by_kw", IndexKind.HASH, ["keyword"])
    return service, client


def populate(service, client, n=150):
    vfs = service.vfs
    vfs.mkdir("/d")
    for i in range(n):
        vfs.write_file(f"/d/f{i:03d}", 100 + i, pid=1)
        client.index_path(f"/d/f{i:03d}", pid=1)
    client.flush_updates()
    # Co-locate some causality so ACGs have edges worth persisting.
    client.flush_acg()
    service.commit_all()


def a_replica(service):
    for node in service.index_nodes.values():
        for replica in node.replicas.values():
            if replica.file_count:
                return node, replica
    raise AssertionError("no populated replica")


# -- checkpoint format ----------------------------------------------------------

def checkpoint(service, node, replica):
    """Write one replica's segment where failover looks for it."""
    return write_checkpoint(service.vfs, node.name, replica.acg_id,
                            encode_segment(replica, node.name))


def test_dump_load_roundtrip():
    service, client = build()
    populate(service, client)
    node, replica = a_replica(service)
    view = decode_segment(encode_segment(replica, node.name))
    assert view.acg_id == replica.acg_id
    assert {s.name for s in view.specs} == set(replica.specs)
    assert view.file_count() == replica.file_count
    for file_id in replica.store.file_ids():
        assert view.attrs(file_id) == replica.store.attrs(file_id)
    got_edges = {(u, v, w) for u, v, w in view.acg_records if v != -1}
    assert got_edges == set(replica.graph.edges())


def test_checkpoint_crc_detects_corruption():
    service, client = build()
    populate(service, client)
    node, replica = a_replica(service)
    data = bytearray(encode_segment(replica, node.name))
    data[30] ^= 0xFF
    with pytest.raises(SegmentCorruption):
        decode_segment(bytes(data))


def test_bad_magic_rejected():
    with pytest.raises(SegmentCorruption):
        decode_segment(b"NOPE" + b"\x00" * 32)


def test_checkpoint_files_land_on_shared_vfs():
    service, client = build()
    populate(service, client)
    node, replica = a_replica(service)
    path = checkpoint(service, node, replica)
    assert path == replica_path(node.name, replica.acg_id)
    assert service.vfs.exists(path)
    assert path in list_checkpoints(service.vfs, node.name)
    view = decode_segment(read_checkpoint(service.vfs, path))
    assert view.acg_id == replica.acg_id


def test_checkpoint_to_shared_covers_all_replicas():
    service, client = build()
    populate(service, client)
    for node in service.index_nodes.values():
        count = node.checkpoint_to_shared()
        assert count == len(node.replicas)
        assert len(list_checkpoints(service.vfs, node.name)) == count


def test_list_checkpoints_empty_for_unknown_node():
    service, _ = build()
    assert list_checkpoints(service.vfs, "ghost") == []


# -- adoption / failover ---------------------------------------------------------

def test_adopt_acg_restores_search_results():
    service, client = build()
    populate(service, client)
    node, replica = a_replica(service)
    path = checkpoint(service, node, replica)
    other = next(n for n in service.index_nodes.values() if n is not node)
    adopted = other.endpoint.dispatch("adopt_acg", path)
    assert adopted == replica.file_count
    twin = other.replica(replica.acg_id)
    assert twin.file_count == replica.file_count
    assert set(twin.specs) == set(replica.specs)


def test_failover_preserves_query_results():
    service, client = build()
    populate(service, client)
    before = client.search("size>0")
    service._checkpoint_all()
    victim = max(service.master.index_nodes,
                 key=service.master.partitions.node_load)
    service.fail_node(victim)
    moved = service.failover(victim)
    assert moved >= 1
    assert victim not in service.master.index_nodes
    assert client.search("size>0") == before


def test_failover_with_one_corrupt_checkpoint_loses_only_that_partition():
    """A checkpoint that fails validation is treated like one that was
    never written: that partition is lost and counted, its healthy
    neighbours are adopted, the victim is unregistered — one flipped
    byte must not strand every partition of the dead node forever."""
    service, client = build()
    populate(service, client)
    master = service.master
    victim = max(master.index_nodes, key=master.partitions.node_load)
    owned = sorted(p.partition_id for p in master.partitions.partitions()
                   if p.node == victim)
    assert len(owned) >= 2
    service._checkpoint_all()
    corrupt, healthy = owned[0], owned[1:]
    doomed = {service.vfs.stat(path).ino for path in client.search("size>0")} \
        & set(service.index_nodes[victim].replicas[corrupt].store.file_ids())
    path = replica_path(victim, corrupt)
    data = bytearray(read_checkpoint(service.vfs, path))
    data[len(data) // 2] ^= 0x01
    write_checkpoint(service.vfs, victim, corrupt, bytes(data))
    before = client.search("size>0")
    service.fail_node(victim)
    assert service.failover(victim) == len(healthy)
    assert victim not in master.index_nodes
    event = master.journal.payloads("failover")[-1]
    assert event.lost == (corrupt,) and sorted(event.moved) == healthy
    assert service.registry.counter(
        "cluster.master.partitions_lost").value == 1
    journaled = service.journal.events(type="failover.adopted")[-1]
    assert journaled.detail["lost_reasons"] == {corrupt: "corrupt"}
    # Searches over the survivors are exact: everything but the lost
    # partition's files.
    assert doomed
    assert client.search("size>0") == [
        p for p in before if service.vfs.stat(p).ino not in doomed]


def test_failover_requires_survivors():
    service, client = build(nodes=1)
    populate(service, client, n=20)
    service._checkpoint_all()
    with pytest.raises(ClusterError):
        service.failover("in1")


def test_failover_unknown_node():
    service, _ = build()
    with pytest.raises(UnknownIndexNode):
        service.master.failover("ghost")


def test_detect_failed_nodes_by_heartbeat_age():
    service, client = build()
    populate(service, client, n=20)
    service.master.poll_heartbeats()
    assert service.master.detect_failed_nodes() == []
    service.clock.charge(20.0)
    assert set(service.master.detect_failed_nodes()) == \
        set(service.master.index_nodes)
    # A fresh round of heartbeats clears the suspicion.
    service.master.poll_heartbeats()
    assert service.master.detect_failed_nodes() == []


def test_poll_heartbeats_tolerates_down_node():
    service, client = build()
    populate(service, client, n=20)
    service.fail_node("in1")
    service.master.poll_heartbeats()  # must not raise
    service.clock.charge(20.0)
    assert "in1" in service.master.detect_failed_nodes()


def test_updates_after_checkpoint_are_lost_on_failover():
    """Documents the durability boundary: failover restores the last
    checkpoint; post-checkpoint updates lived in the dead node's WAL."""
    service, client = build()
    populate(service, client)
    service._checkpoint_all()
    vfs = service.vfs
    vfs.write_file("/d/late", 10_000, pid=1)
    client.index_path("/d/late", pid=1)
    client.flush_updates()
    service.commit_all()
    # The client placed the update, so its route cache — not the Master's
    # file map — knows which partition holds the late file.
    route = client._file_routes[vfs.stat("/d/late").ino]
    victim = service.master.partitions.get(route).node
    service.fail_node(victim)
    service.failover(victim)
    assert "/d/late" not in client.search("size>0")


def _park_late_update(service, client, size=10_000):
    """Index one new file and leave its update parked (acknowledged,
    uncommitted) on its owner; returns (path, owner node, partition)."""
    vfs = service.vfs
    vfs.write_file("/d/late", size, pid=1)
    client.index_path("/d/late", pid=1)
    client.flush_updates()
    route = client._file_routes[vfs.stat("/d/late").ino]
    owner = service.index_nodes[service.master.partitions.get(route).node]
    assert owner.cache.pending_ops(route)
    return "/d/late", owner, route


def test_checkpoint_carries_pending_updates_without_committing_them():
    """A checkpoint is durability, not visibility: the parked update stays
    in the cache (still uncommitted, its freshness stamp unresolved) and
    rides in the checkpoint as the segment's pending tail."""
    service, client = build()
    populate(service, client)
    path, owner, route = _park_late_update(service, client)
    applied = owner.replicas[route].applied
    owner.checkpoint_to_shared()
    assert owner.cache.pending_ops(route)
    assert owner.replicas[route].applied == applied
    view = decode_segment(read_checkpoint(service.vfs,
                                          replica_path(owner.name, route)))
    ino = service.vfs.stat(path).ino
    assert [u.file_id for u in view.pending] == [ino]
    assert view.pending == list(owner.cache.pending_ops(route))
    assert ino not in {file_id for file_id, _, _ in view.rows()}


def test_a_segment_without_a_tail_is_unchanged():
    service, client = build()
    populate(service, client)
    node, replica = a_replica(service)
    data = encode_segment(replica, node.name)
    assert encode_segment(replica, node.name, pending=()) == data
    assert decode_segment(data).pending == []


def test_pending_updates_at_checkpoint_survive_failover():
    """Acknowledged before the checkpoint means adopted by failover, even
    when the victim had not committed it yet."""
    service, client = build()
    populate(service, client)
    path, owner, _ = _park_late_update(service, client)
    service._checkpoint_all()
    service.fail_node(owner.name)
    service.failover(owner.name)
    assert path in client.search("size>0")
    assert client.search("size>=10000") == [path]
