"""MasterNode: routing, assignment, heartbeats, splits, checkpoints."""

import pytest

from repro.cluster.index_node import IndexNode
from repro.cluster.master import MasterNode
from repro.cluster.messages import IndexUpdate, UpdateBatch
from repro.core.partitioner import PartitioningPolicy
from repro.errors import ClusterError, UnknownIndexName, UnknownIndexNode
from repro.indexstructures import IndexKind
from repro.query.planner import IndexSpec
from repro.sim.clock import SimClock
from repro.sim.machine import Cluster
from repro.sim.network import NetworkModel
from repro.sim.rpc import RpcNetwork


def make_cluster(n_nodes=2, policy=None):
    cluster = Cluster(["mn"] + [f"in{i}" for i in range(1, n_nodes + 1)])
    rpc = RpcNetwork(cluster.network)
    master = MasterNode(cluster["mn"], rpc,
                        policy=policy or PartitioningPolicy(split_threshold=50,
                                                            cluster_target=10))
    nodes = {}
    for i in range(1, n_nodes + 1):
        name = f"in{i}"
        node = IndexNode(name, cluster[name])
        rpc.add_endpoint(node.endpoint)
        master.register_index_node(name)
        nodes[name] = node
    return master, nodes, rpc


def test_register_duplicate_node_rejected():
    master, _, _ = make_cluster()
    with pytest.raises(ClusterError):
        master.register_index_node("in1")


def test_routing_requires_nodes():
    cluster = Cluster(["mn"])
    master = MasterNode(cluster["mn"], RpcNetwork(cluster.network))
    with pytest.raises(UnknownIndexNode):
        master.route_updates([1])


def test_route_new_files_creates_partition():
    master, _, _ = make_cluster()
    routes = master.route_updates([1, 2, 3])
    assert len(routes) == 3
    assert len({r.acg_id for r in routes}) == 1  # packed together (small)
    assert all(r.node in ("in1", "in2") for r in routes)


def test_route_existing_file_is_stable():
    master, _, _ = make_cluster()
    first = master.route_updates([1])[0]
    second = master.route_updates([1])[0]
    assert first.acg_id == second.acg_id
    assert first.node == second.node


def test_hint_coloctes_with_producer():
    master, _, _ = make_cluster()
    producer = master.route_updates([1])[0]
    consumer = master.route_updates([2], hints={2: 1})[0]
    assert consumer.acg_id == producer.acg_id


def test_open_partition_packing_until_target():
    master, _, _ = make_cluster()
    routes = master.route_updates(list(range(25)))
    acgs = {r.acg_id for r in routes}
    sizes = sorted(p.size for p in master.partitions.partitions())
    assert sum(sizes) == 25
    assert all(s <= 15 for s in sizes)   # cluster_target 10 (+ slack)
    assert len(acgs) >= 2


def test_new_partitions_go_to_least_loaded_node():
    master, _, _ = make_cluster()
    master.route_updates(list(range(40)))
    loads = [master.partitions.node_load(n) for n in master.index_nodes]
    assert max(loads) - min(loads) <= 20


def test_create_index_propagates_and_rejects_duplicates():
    master, nodes, _ = make_cluster()
    spec = IndexSpec("by_size", IndexKind.BTREE, ("size",))
    master.create_index(spec)
    for node in nodes.values():
        assert "by_size" in node._global_specs
    with pytest.raises(ClusterError):
        master.create_index(spec)


def test_route_search_unknown_index():
    master, _, _ = make_cluster()
    with pytest.raises(UnknownIndexName):
        master.route_search("ghost")


def test_route_search_covers_all_partitions():
    master, _, _ = make_cluster()
    master.create_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    master.route_updates(list(range(30)))
    routing = master.route_search("by_size")
    covered = {acg for acgs in routing.values() for acg in acgs}
    assert covered == {p.partition_id for p in master.partitions.partitions()}


def test_file_created_and_deleted():
    master, _, _ = make_cluster()
    route = master.file_created(5)
    assert master.partitions.partition_of(5) == route.acg_id
    gone = master.file_deleted(5)
    assert gone.acg_id == route.acg_id
    assert master.partitions.partition_of(5) is None
    assert master.file_deleted(5) is None


def test_heartbeats_collected():
    master, nodes, _ = make_cluster()
    master.poll_heartbeats()
    assert set(master.heartbeats) == set(nodes)


def test_oversized_partition_triggers_split_and_migration():
    master, nodes, rpc = make_cluster(
        policy=PartitioningPolicy(split_threshold=30, cluster_target=10))
    master.create_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    # Grow one partition past the threshold via causal hints.
    routes = master.route_updates([0])
    acg = routes[0].acg_id
    node = routes[0].node
    for i in range(1, 40):
        master.route_updates([i], hints={i: i - 1})
    assert master.partitions.get(acg).size == 40
    # The owning node must have the data to split.
    rpc.call(node, "index_update", [UpdateBatch(acg, tuple(
        IndexUpdate.upsert(i, {"size": i}) for i in range(40)))])
    rpc.call(node, "flush_acg", [(acg, [(i, i + 1, 1) for i in range(39)])])
    decisions = master.maybe_split()
    assert len(decisions) == 1
    decision = decisions[0]
    assert decision.moved_files > 0
    assert decision.source_node != decision.target_node
    sizes = sorted(p.size for p in master.partitions.partitions())
    assert max(sizes) <= 30


def test_checkpoint_and_restore():
    master, _, _ = make_cluster()
    master.route_updates(list(range(12)))
    records = master.checkpoint()
    assert master.checkpoints_written == 1
    cluster2 = Cluster(["mn2"])
    restored = MasterNode.restore(cluster2["mn2"], RpcNetwork(cluster2.network),
                                  records, ["in1", "in2"])
    for fid in range(12):
        assert restored.partitions.partition_of(fid) == \
            master.partitions.partition_of(fid)
