"""Graceful degradation and automatic failover, end to end.

The acceptance scenario: with one Index Node dead, a query returns
partial results flagged ``degraded`` naming exactly the unreachable
partitions; after the heartbeat-driven auto-failover reassigns the dead
node's partitions from its shared-storage checkpoint, the same query
returns full results.  A recovered victim then rejoins empty — nothing
double-counts."""

import pytest

from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.indexstructures import IndexKind
from repro.sim.rpc import RetryPolicy


def build(nodes=3):
    service = PropellerService(
        num_index_nodes=nodes,
        policy=PartitioningPolicy(split_threshold=10**9, cluster_target=8),
        retry_policy=RetryPolicy(),
        auto_failover=True)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    return service, client


def populate(service, client, n=40):
    service.vfs.mkdir("/d", parents=True)
    for i in range(n):
        # Distinct pids defeat the causality hint's co-location so the
        # files spread over many partitions (and therefore many nodes).
        service.vfs.write_file(f"/d/f{i:03d}", 100 + i, pid=100 + i)
        client.index_path(f"/d/f{i:03d}", pid=100 + i)
    client.flush_updates()
    service.commit_all()       # indexed, not just parked
    service._checkpoint_all()  # durable state for failover to restore


def loaded_node(service):
    return max(service.master.index_nodes,
               key=service.master.partitions.node_load)


def test_degraded_query_then_full_after_auto_failover():
    service, client = build()
    populate(service, client)
    full = client.search("size>0")
    assert len(full) == 40

    victim = loaded_node(service)
    # Every partition routed to the victim counts: the client fans out
    # to all placed partitions (the Master no longer tracks membership).
    victim_partitions = sorted(
        p.partition_id for p in service.master.partitions.partitions()
        if p.node == victim)
    assert victim_partitions
    service.fail_node(victim)

    # Dead node: the query degrades, naming exactly what is missing.
    answer = client.search_detailed("size>0")
    assert answer.degraded
    assert answer.unreachable_nodes == [victim]
    assert answer.unreachable_partitions == victim_partitions
    assert len(answer.paths) < len(full)

    # One heartbeat round later the master has failed the victim over.
    service.advance(6.0)
    assert victim not in service.master.index_nodes
    events = [e for e in service.journal.payloads("failover")
              if e.node == victim]
    assert events and events[0].auto
    assert sorted(events[0].moved) == victim_partitions

    # Full results again, no degradation, from the survivors.
    healed = client.search_detailed("size>0")
    assert not healed.degraded
    assert healed.paths == full


def test_failover_recover_rejoin_no_double_counting():
    service, client = build()
    populate(service, client)
    baseline = service.total_indexed_files()
    assert baseline == 40
    full = client.search("size>0")

    victim = loaded_node(service)
    service.fail_node(victim)
    service.advance(6.0)  # auto-failover
    assert victim not in service.master.index_nodes
    assert service.total_indexed_files() == baseline

    # The victim comes back: it must rejoin EMPTY — its replicas are
    # stale copies of partitions now live on the survivors.
    replayed = service.recover_node(victim)
    assert replayed == 0
    assert victim in service.master.index_nodes
    assert service.registry.value("cluster.master.rejoins") == 1
    assert len(service.index_nodes[victim].replicas) == 0
    assert service.total_indexed_files() == baseline
    assert client.search("size>0") == full

    # And it serves again: new files can land on the rejoined node.
    for i in range(40, 56):
        service.vfs.write_file(f"/d/f{i:03d}", 100 + i, pid=100 + i)
        client.index_path(f"/d/f{i:03d}", pid=100 + i)
    client.flush_updates()
    # Commit visibility is bounded by cache timeout (5s) + tick period
    # (2.5s); 8s guarantees the timeout commit fired.
    service.advance(8.0)
    assert service.total_indexed_files() == baseline + 16
    assert len(client.search("size>0")) == 56


def test_restart_without_failover_replays_wal():
    """A node that crashes and restarts before the failure detector
    acts keeps its data: WAL replay covers the acked-but-uncommitted
    tail, and nothing is degraded afterwards."""
    service, client = build()
    populate(service, client)
    victim = loaded_node(service)
    node = service.index_nodes[victim]
    node.crash()
    assert victim in service.master.index_nodes  # detector hasn't acted
    replayed = service.recover_node(victim)
    assert replayed >= 0
    answer = client.search_detailed("size>0")
    assert not answer.degraded
    assert len(answer.paths) == 40


def test_updates_requeue_while_node_down_and_deliver_after_failover():
    """Index updates bound for a dead node re-queue client-side and are
    re-routed (to the failed-over owner) on the next flush."""
    service, client = build()
    populate(service, client)
    victim = loaded_node(service)
    service.fail_node(victim)
    # New files that route to the dead node's partitions re-queue.
    for i in range(100, 108):
        service.vfs.write_file(f"/d/g{i}", i, pid=i)
        client.index_path(f"/d/g{i}", pid=i)
    client.flush_updates()
    service.advance(6.0)  # failover moves the partitions
    delivered = client.flush_updates()
    assert delivered >= 0
    assert client._pending == []
    assert len(client.search("size>0")) == 48
