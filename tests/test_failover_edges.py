"""Failure-path edges found by audit: down nodes during splits, and
failover of a victim that never checkpointed."""

import pytest

from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.indexstructures import IndexKind


def build(nodes=3, split=40):
    service = PropellerService(
        num_index_nodes=nodes,
        policy=PartitioningPolicy(split_threshold=split, cluster_target=15))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    return service, client


def chain_files(service, client, n, pid=7):
    service.vfs.mkdir("/d", parents=True) if not service.vfs.exists("/d") else None
    for i in range(n):
        service.vfs.write_file(f"/d/c{pid}_{i:03d}", 100 + i, pid=pid)
        client.index_path(f"/d/c{pid}_{i:03d}", pid=pid)
    client.flush_updates()


def hosted_files(service, p):
    """Files a partition's owner actually holds (the Master only learns
    sizes from heartbeats now, so tests read the node side directly)."""
    node = service.index_nodes.get(p.node) if p.node else None
    replica = node.replicas.get(p.partition_id) if node else None
    return replica.file_count if replica else 0


def test_split_of_partition_on_down_node_is_deferred():
    service, client = build()
    chain_files(service, client, 60)       # one oversized partition
    service.commit_all()
    big = max(service.master.partitions.partitions(),
              key=lambda p: hosted_files(service, p))
    assert hosted_files(service, big) > 40
    service.fail_node(big.node)
    # The heartbeat round must not blow up on the dead owner...
    service.master.poll_heartbeats()
    assert len(service.master.splits) == 0
    # ...and the split happens once the node is back.
    service.index_nodes[big.node].endpoint.recover()
    service.master.poll_heartbeats()
    assert len(service.master.splits) >= 1


def test_failover_without_checkpoint_leaves_partition_unplaced():
    service, client = build()
    chain_files(service, client, 30)
    service.commit_all()
    victim = max(service.index_nodes,
                 key=lambda n: sum(r.file_count
                                   for r in service.index_nodes[n].replicas.values()))
    # No checkpoint ever written: the victim's data is unrecoverable.
    service.fail_node(victim)
    moved = service.failover(victim)
    assert moved == 0
    orphaned = [p for p in service.master.partitions.partitions()
                if p.node is None]
    assert orphaned
    # The cluster still serves (the orphaned data is lost, not the service).
    assert client.search("size>1000000") == []
    # New updates re-place the orphaned files on a survivor.
    for path, inode in list(service.vfs.namespace.files("/d")):
        client.index_path(path, pid=1)
    client.flush_updates()
    got = client.search("size>0")
    assert len(got) == 30
    hosted = sum(r.file_count
                 for name, node in service.index_nodes.items()
                 if node.endpoint.up
                 for r in node.replicas.values())
    assert hosted == 30


def test_master_restart_replays_inflight_failover():
    """The Master restarts right after failing a node over, with the
    victim still down: meta-WAL replay rebuilds the re-homed placements
    and membership at the same term, and the cluster keeps serving."""
    service, client = build()
    chain_files(service, client, 30)
    service.commit_all()
    service._checkpoint_all()
    master = service.master
    victim = max(service.index_nodes,
                 key=lambda n: sum(r.file_count
                                   for r in service.index_nodes[n].replicas.values()))
    service.fail_node(victim)
    moved = service.failover(victim)
    assert moved >= 1
    assert all(p.node != victim for p in master.partitions.partitions())
    before = master.state.snapshot()
    term_before = master.term
    epoch_before = master.partitions.epoch

    # Failover evicted the victim from membership; that eviction is a
    # durable record too.
    assert victim not in master.index_nodes

    # Crash-restart the Master while the victim is still dead.  Replay
    # must reproduce the failover's outcome exactly: same placements,
    # same routing epoch, same term, victim still evicted.
    service.crash_master()
    service.restart_master()
    assert master.acting and master.term == term_before
    assert master.state.snapshot() == before
    assert master.partitions.epoch == epoch_before
    assert victim not in master.index_nodes
    assert all(p.node != victim for p in master.partitions.partitions())
    assert len(client.search("size>0")) == 30

    # The victim's eventual return does not resurrect stale ownership:
    # heartbeat rounds keep the re-homed placements.
    service.index_nodes[victim].endpoint.recover()
    master.poll_heartbeats()
    assert all(p.node != victim for p in master.partitions.partitions())
    assert len(client.search("size>0")) == 30


def test_background_timer_survives_node_failure():
    """The periodic heartbeat/split/checkpoint timers must keep firing
    with a dead node in the cluster."""
    service, client = build()
    chain_files(service, client, 60)
    service.fail_node("in1")
    service.advance(65.0)   # heartbeats + checkpoints, several rounds
    assert service.clock.now() >= 65.0
