"""MasterNode: partition allocation, heartbeats, splits, checkpoints —
and the placement a client makes from the table the Master serves (the
Master itself places no file)."""

import pytest

from repro.cluster.index_node import IndexNode
from repro.cluster.client import PropellerClient
from repro.cluster.master import MasterNode
from repro.cluster.messages import IndexUpdate, UpdateBatch
from repro.core.partitioner import PartitioningPolicy
from repro.errors import ClusterError, UnknownIndexName, UnknownIndexNode
from repro.fs.vfs import VirtualFileSystem
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


def make_client(master, rpc):
    """A client over the bare cluster, and the VFS it watches."""
    vfs = VirtualFileSystem(master.machine.clock)
    vfs.mkdir("/d")
    return PropellerClient(vfs, rpc), vfs


def index(client, vfs, names, pid=None):
    """Write then index each file in turn — by one process (each file's
    producer is the one before it) or, without ``pid``, by a process of
    its own (no producer); returns their inode numbers."""
    inos = []
    for i, name in enumerate(names):
        writer = pid if pid is not None else 100 + i
        vfs.write_file(f"/d/{name}", 10, pid=writer)
        client.index_path(f"/d/{name}", pid=writer)
        inos.append(vfs.stat(f"/d/{name}").ino)
    client.flush_updates()
    return inos


def hosted_sizes(nodes):
    """acg → files parked or committed on the node that hosts it."""
    sizes = {}
    for node in nodes.values():
        node.cache.commit_all()
        for acg_id, replica in node.replicas.items():
            sizes[acg_id] = replica.file_count
    return sizes


def test_register_duplicate_node_rejected():
    master, _, _ = make_cluster()
    with pytest.raises(ClusterError):
        master.register_index_node("in1")


def test_routing_requires_nodes():
    cluster = Cluster(["mn"])
    master = MasterNode(cluster["mn"], RpcNetwork(cluster.network))
    with pytest.raises(UnknownIndexNode):
        master.allocate_partitions()


def test_route_new_files_creates_partition():
    master, nodes, rpc = make_cluster()
    client, vfs = make_client(master, rpc)
    inos = index(client, vfs, ["a", "b", "c"])
    # One slab from the Master; every file has a placed, granted home.
    assert len(master.partitions.partitions()) == 4
    placed = {p.partition_id: p.node for p in master.partitions.partitions()}
    assert all(placed[client._file_routes[ino]] in nodes for ino in inos)
    assert sum(hosted_sizes(nodes).values()) == 3


def test_route_existing_file_is_stable():
    master, nodes, rpc = make_cluster()
    client, vfs = make_client(master, rpc)
    (ino,) = index(client, vfs, ["a"])
    first = client._file_routes[ino]
    index(client, vfs, ["a"])
    assert client._file_routes[ino] == first
    assert hosted_sizes(nodes)[first] == 1
    assert len(master.partitions.partitions()) == 4     # no second slab


def test_hint_coloctes_with_producer():
    master, _, rpc = make_cluster()
    client, vfs = make_client(master, rpc)
    producer, consumer = index(client, vfs, ["a", "b"], pid=5)
    assert client._file_routes[consumer] == client._file_routes[producer]


def test_open_partition_packing_until_target():
    master, nodes, rpc = make_cluster()
    client, vfs = make_client(master, rpc)
    index(client, vfs, [f"f{i}" for i in range(45)])
    sizes = sorted(hosted_sizes(nodes).values())
    assert sum(sizes) == 45
    assert all(s <= 10 for s in sizes)   # cluster_target 10
    assert len(sizes) == 8               # a second slab once the first filled


def test_new_partitions_go_to_least_loaded_node():
    master, nodes, rpc = make_cluster()
    client, vfs = make_client(master, rpc)
    index(client, vfs, [f"f{i}" for i in range(40)])
    sizes = hosted_sizes(nodes)
    loads = [sum(sizes[a] for a in node.replicas) for node in nodes.values()]
    assert sum(loads) == 40 and max(loads) - min(loads) <= 20
    per_node = [sum(1 for p in master.partitions.partitions() if p.node == n)
                for n in master.index_nodes]
    assert max(per_node) - min(per_node) <= 1


def test_create_index_propagates_and_rejects_duplicates():
    master, nodes, _ = make_cluster()
    spec = IndexSpec("by_size", IndexKind.BTREE, ("size",))
    master.create_index(spec)
    for node in nodes.values():
        assert "by_size" in node._global_specs
    with pytest.raises(ClusterError):
        master.create_index(spec)


def test_explain_unknown_index():
    """A named index no node was ever told about names nothing — the
    nodes say so now; the Master's ``route_search`` used to."""
    master, _, rpc = make_cluster()
    client, vfs = make_client(master, rpc)
    index(client, vfs, ["a"])
    with pytest.raises(UnknownIndexName):
        client.explain("size>0", "ghost")


def test_explain_covers_all_partitions():
    """Every placed partition is explained, including ones allocated
    behind this client's back: explain pulls the table first."""
    master, _, rpc = make_cluster()
    client, _ = make_client(master, rpc)
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    master.allocate_partitions(3)
    plans = client.explain("size>0", "by_size")
    placed = {p.partition_id for p in master.partitions.partitions()}
    assert len(placed) == 3 and set(plans) == placed
    assert all(paths == ["BTREE RANGE by_size (0, +inf]"]
               for paths in plans.values())


def test_file_deleted_forgets_a_known_file():
    master, _, _ = make_cluster()
    acg_id = master.allocate_partitions(1).entries[0].acg_id
    master.partitions.add_file(acg_id, 5)     # as a split or merge would
    assert master.lookup_file([5, 6]) == {5: acg_id}
    gone = master.file_deleted(5)
    assert gone.acg_id == acg_id and gone.node in master.index_nodes
    assert master.lookup_file([5]) == {}
    assert master.file_deleted(5) is None


def test_heartbeats_collected():
    master, nodes, _ = make_cluster()
    master.poll_heartbeats()
    assert set(master.heartbeats) == set(nodes)


def test_oversized_partition_triggers_split_and_migration():
    master, nodes, rpc = make_cluster(
        policy=PartitioningPolicy(split_threshold=30, cluster_target=10))
    master.create_index(IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    # One partition grown past the threshold the way a client grows it:
    # a chain of causal hints, unknown to the Master until the owner's
    # heartbeat reports its size.
    table = master.allocate_partitions(1)
    acg, node = table.entries[0].acg_id, table.entries[0].node
    rpc.call(node, "index_update", [UpdateBatch(acg, tuple(
        IndexUpdate.upsert(i, {"size": i}) for i in range(40)), table.epoch)])
    rpc.call(node, "flush_acg", [(acg, [(i, i + 1, 1) for i in range(39)])])
    assert master.partitions.get(acg).size == 0
    nodes[node].cache.commit_all()
    master.report_heartbeat(nodes[node].make_heartbeat())
    decisions = master.maybe_split()
    assert len(decisions) == 1
    decision = decisions[0]
    assert decision.moved_files > 0
    assert decision.source_node != decision.target_node
    sizes = sorted(p.size for p in master.partitions.partitions())
    assert max(sizes) <= 30


def test_checkpoint_and_restore():
    master, _, _ = make_cluster()
    for entry in master.allocate_partitions(2).entries:
        for fid in range(6 * entry.acg_id, 6 * entry.acg_id + 6):
            master.partitions.add_file(entry.acg_id, fid)   # as a split would
    records = master.checkpoint()
    assert master.checkpoints_written == 1
    cluster2 = Cluster(["mn2"])
    restored = MasterNode.restore(cluster2["mn2"], RpcNetwork(cluster2.network),
                                  records, ["in1", "in2"])
    for fid in range(6, 18):
        assert master.partitions.partition_of(fid) is not None
        assert restored.partitions.partition_of(fid) == \
            master.partitions.partition_of(fid)
