"""Fault injection under observation: a search against a dead node must
surface as an errored span, and failover must advance the master's
registry counters (failovers, reassigned partitions)."""

import pytest

from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.errors import NodeDown
from repro.indexstructures import IndexKind


def build(nodes=3, split=40):
    service = PropellerService(
        num_index_nodes=nodes,
        policy=PartitioningPolicy(split_threshold=split, cluster_target=15))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    return service, client


def index_files(service, client, n, pid=7):
    if not service.vfs.exists("/d"):
        service.vfs.mkdir("/d", parents=True)
    for i in range(n):
        service.vfs.write_file(f"/d/c{pid}_{i:03d}", 100 + i, pid=pid)
        client.index_path(f"/d/c{pid}_{i:03d}", pid=pid)
    client.flush_updates()


def loaded_node(service):
    """The index node carrying the most partitions."""
    return max(service.master.index_nodes,
               key=service.master.partitions.node_load)


class TestSearchAgainstDeadNode:
    def test_search_degrades_and_leg_span_is_errored(self):
        """The fan-out leg that hit the dead node errors its span, but
        the search itself degrades instead of failing: the root span
        completes and the answer names the unreachable partitions."""
        service, client = build()
        index_files(service, client, 30)
        service.enable_tracing()
        victim = loaded_node(service)
        service.fail_node(victim)
        answer = client.search_detailed("size>0")
        assert answer.degraded
        assert answer.unreachable_nodes == [victim]
        assert answer.unreachable_partitions
        root = service.tracer.last_root("search")
        assert root is not None
        assert root.status == "ok"
        # The failing fan-out leg still carries the error.
        errored = [s for s in root.walk()
                   if s.name == "rpc:search" and s.status == "error"]
        assert errored
        assert errored[0].attributes["target"] == victim
        assert "NodeDown" in (errored[0].error or "")

    def test_up_gauge_tracks_failure_and_recovery(self):
        service, client = build()
        index_files(service, client, 10)
        victim = loaded_node(service)
        assert service.registry.value(f"cluster.{victim}.up") is True
        service.fail_node(victim)
        assert service.registry.value(f"cluster.{victim}.up") is False
        assert service.stats()["nodes"][victim]["up"] is False
        service.index_nodes[victim].endpoint.recover()
        assert service.registry.value(f"cluster.{victim}.up") is True


class TestFailoverMetrics:
    def test_failover_counters_advance_and_search_recovers(self):
        service, client = build()
        index_files(service, client, 30)
        service._checkpoint_all()          # durable state to fail over from
        service.enable_tracing()
        reg = service.registry

        victim = loaded_node(service)
        victim_parts = [p for p in service.master.partitions.partitions()
                        if p.node == victim]
        assert victim_parts
        service.fail_node(victim)
        moved = service.failover(victim)
        assert moved == len(victim_parts)

        assert reg.value("cluster.master.failovers") == 1
        assert reg.value("cluster.master.reassigned_partitions") == moved
        # The failover itself was traced.
        span = service.tracer.last_root("failover")
        assert span is not None
        assert span.attributes["failed_node"] == victim
        assert span.attributes["moved"] == moved

        # The cluster serves the full dataset again from the survivors.
        results = client.search("size>0")
        assert len(results) == 30
        root = service.tracer.last_root("search")
        assert root.status == "ok"

    def test_failover_without_checkpoint_counts_lost_partitions(self):
        service, client = build()
        index_files(service, client, 30)
        victim = loaded_node(service)
        lost = len([p for p in service.master.partitions.partitions()
                    if p.node == victim])
        service.fail_node(victim)
        moved = service.failover(victim)   # nothing durable: nothing moves
        assert moved == 0
        reg = service.registry
        assert reg.value("cluster.master.failovers") == 1
        assert reg.value("cluster.master.partitions_lost") == lost
        assert reg.value("cluster.master.reassigned_partitions") == 0
        reasons = service.journal.events(type="failover")[-1] \
            .detail["lost_reasons"]
        assert len(reasons) == lost and set(reasons.values()) == {"missing"}

    def test_double_failover_accumulates(self):
        service, client = build(nodes=4)
        index_files(service, client, 30, pid=7)
        index_files(service, client, 30, pid=8)
        service._checkpoint_all()
        # One heartbeat round teaches the Master the node loads, so each
        # failover adopts onto a genuinely idle survivor.
        service.master.poll_heartbeats()
        reg = service.registry
        victims = [n for n in service.master.index_nodes
                   if any(r.file_count
                          for r in service.index_nodes[n].replicas.values())][:2]
        total_moved = 0
        for victim in victims:
            service.fail_node(victim)
            total_moved += service.failover(victim)
        assert reg.value("cluster.master.failovers") == len(victims)
        assert reg.value("cluster.master.reassigned_partitions") == total_moved
        assert total_moved >= 1
        assert len(client.search("size>0")) == 60
