"""Rebalancing/merging, sorted search, and B+tree bulk loading."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.errors import ClusterError, UnknownIndexNode
from repro.indexstructures import IndexKind
from repro.indexstructures.btree import BPlusTree


def build(nodes=3, split=500, target=30):
    service = PropellerService(
        num_index_nodes=nodes,
        policy=PartitioningPolicy(split_threshold=split, cluster_target=target))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    return service, client


def populate(service, client, n=120, files_per_process=30):
    """Write files as several independent processes so causality hints
    produce several partitions (one application ≈ one partition)."""
    vfs = service.vfs
    vfs.mkdir("/d")
    for i in range(n):
        pid = 1 + i // files_per_process
        vfs.write_file(f"/d/f{i:03d}", 100 + i, pid=pid)
        client.index_path(f"/d/f{i:03d}", pid=pid)
        if (i + 1) % files_per_process == 0:
            client.access_manager.process_finished(pid)
    client.flush_updates()
    service.commit_all()


# -- migration / rebalance / merge ----------------------------------------------

def hosted_files(service, p):
    """Files a partition's owner actually holds.  The Master only learns
    sizes from heartbeats now, so tests read the node side directly."""
    node = service.index_nodes.get(p.node) if p.node else None
    replica = node.replicas.get(p.partition_id) if node else None
    return replica.file_count if replica else 0


def node_files(service, name):
    return sum(r.file_count
               for r in service.index_nodes[name].replicas.values())


def test_migrate_partition_moves_data_and_serves():
    service, client = build()
    populate(service, client)
    partition = next(p for p in service.master.partitions.partitions()
                     if hosted_files(service, p))
    size = hosted_files(service, partition)
    source = partition.node
    target = next(n for n in service.master.index_nodes if n != source)
    before = client.search("size>0")
    moved = service.master.migrate_partition(partition.partition_id, target)
    assert moved == size
    assert partition.node == target
    assert partition.partition_id not in service.index_nodes[source].replicas
    assert client.search("size>0") == before


def test_migrate_to_same_node_is_noop():
    service, client = build()
    populate(service, client)
    partition = next(p for p in service.master.partitions.partitions()
                     if hosted_files(service, p))
    assert service.master.migrate_partition(partition.partition_id,
                                            partition.node) == 0


def test_migrate_to_unknown_node():
    service, client = build()
    populate(service, client)
    partition = service.master.partitions.partitions()[0]
    with pytest.raises(UnknownIndexNode):
        service.master.migrate_partition(partition.partition_id, "ghost")


def test_rebalance_levels_loads():
    service, client = build(nodes=3)
    populate(service, client, n=150)
    master = service.master
    # Skew everything onto one node first.
    heavy = master.index_nodes[0]
    for partition in master.partitions.partitions():
        if partition.node != heavy and hosted_files(service, partition):
            master.migrate_partition(partition.partition_id, heavy)
    assert node_files(service, heavy) == 150
    before = client.search("size>0")
    # Rebalancing works off heartbeat-reported sizes; drive one round.
    master.poll_heartbeats()
    moves = master.rebalance(tolerance=0.25)
    assert moves >= 1
    loads = [node_files(service, n) for n in master.index_nodes]
    biggest = max(hosted_files(service, p)
                  for p in master.partitions.partitions())
    assert max(loads) <= (sum(loads) / len(loads)) * 1.25 + biggest
    assert client.search("size>0") == before


def test_rebalance_single_node_is_noop():
    service, client = build(nodes=1)
    populate(service, client, n=40)
    assert service.master.rebalance() == 0


def test_merge_partitions_absorbs_and_serves():
    service, client = build()
    populate(service, client)
    parts = [p for p in service.master.partitions.partitions()
             if hosted_files(service, p)]
    assert len(parts) >= 2
    keep, absorb = parts[0], parts[1]
    absorbed_files = set(
        service.index_nodes[absorb.node]
        .replicas[absorb.partition_id].store.file_ids())
    before = client.search("size>0")
    moved = service.master.merge_partitions(keep.partition_id, absorb.partition_id)
    assert moved == len(absorbed_files)
    assert absorbed_files <= keep.files
    assert client.search("size>0") == before
    # The absorbed id is gone from the partition map.
    from repro.errors import UnknownAcg
    with pytest.raises(UnknownAcg):
        service.master.partitions.get(absorb.partition_id)


def test_merge_with_itself_rejected():
    service, client = build()
    populate(service, client)
    partition = service.master.partitions.partitions()[0]
    with pytest.raises(ClusterError):
        service.master.merge_partitions(partition.partition_id,
                                        partition.partition_id)


def test_merge_small_partitions_defragments():
    service, client = build(target=10)
    populate(service, client, n=44)   # leaves a few small partitions
    small_before = [p for p in service.master.partitions.partitions()
                    if p.files and p.size < 5]
    before = client.search("size>0")
    service.master.merge_small_partitions(min_size=5)
    small_after = [p for p in service.master.partitions.partitions()
                   if p.files and p.size < 5]
    assert len(small_after) <= 1
    assert client.search("size>0") == before


# -- sorted / limited search -------------------------------------------------------

def test_search_sort_by_size_descending_with_limit():
    service, client = build()
    populate(service, client, n=30)
    top3 = client.search("size>0", sort_by="size", descending=True, limit=3)
    assert top3 == ["/d/f029", "/d/f028", "/d/f027"]


def test_search_sort_ascending():
    service, client = build()
    populate(service, client, n=10)
    ordered = client.search("size>0", sort_by="size")
    assert ordered[0] == "/d/f000"
    assert ordered[-1] == "/d/f009"


def test_search_default_order_with_limit():
    service, client = build()
    populate(service, client, n=10)
    assert client.search("size>0", limit=2) == ["/d/f000", "/d/f001"]


def test_search_sort_by_user_attribute_missing_sorts_last():
    service, client = build()
    populate(service, client, n=4)
    service.vfs.setattr("/d/f002", "rank", 1.0)
    client.index_path("/d/f002", pid=1)
    ordered = client.search("size>0", sort_by="rank")
    assert ordered[0] == "/d/f002"        # only file with the attribute


def test_search_sort_by_mixed_kinds_is_a_total_order():
    """Numbers before strings before other kinds, missing and NaN last
    in either direction — where comparing an int to a str used to raise
    ``TypeError``."""
    service, client = build()
    populate(service, client, n=6)
    for path, owner in (("/d/f000", "ann"), ("/d/f001", 1),
                        ("/d/f002", float("nan")), ("/d/f003", 2.5),
                        ("/d/f004", ("t",))):
        service.vfs.setattr(path, "owner", owner)
        client.index_path(path, pid=1)
    assert len(client.select("size>0", ["owner"])) == 6
    assert client.search("size>0", sort_by="owner") == [
        "/d/f001", "/d/f003", "/d/f000", "/d/f004", "/d/f002", "/d/f005"]
    assert client.search("size>0", sort_by="owner", descending=True) == [
        "/d/f004", "/d/f000", "/d/f003", "/d/f001", "/d/f002", "/d/f005"]


@pytest.mark.parametrize("call", [
    lambda client: client.select("size>0", ["size"]),
    lambda client: client.search("size>0", sort_by="size"),
], ids=["select", "sort_by"])
def test_a_stat_failure_other_than_an_unlink_race_surfaces(call):
    """Only the errors an unlinked path resolves to are swallowed as the
    race they are; any other failure of ``stat`` is not a missing file."""
    service, client = build()
    populate(service, client, n=4)
    real_stat = service.vfs.stat

    def stat(path):
        if path == "/d/f001":
            raise RuntimeError("stat failed")
        return real_stat(path)

    service.vfs.stat = stat
    with pytest.raises(RuntimeError, match="stat failed"):
        call(client)


def test_an_unlinked_result_is_left_out_of_select():
    """The race the narrowed catch keeps: a path the index still answers
    but that no longer resolves drops out of the rows."""
    service, client = build()
    populate(service, client, n=4)
    real_stat = service.vfs.stat

    def stat(path):
        if path == "/d/f001":
            return real_stat("/d/missing")
        return real_stat(path)

    service.vfs.stat = stat
    rows = client.select("size>0", ["size"])
    assert [row["path"] for row in rows] == ["/d/f000", "/d/f002", "/d/f003"]


# -- B+tree bulk load ------------------------------------------------------------------------

def test_bulk_load_matches_inserted_tree():
    rng = random.Random(0)
    pairs = [(rng.randrange(500), i) for i in range(800)]
    bulk = BPlusTree.bulk_load(pairs, order=16)
    bulk.check_invariants()
    reference = BPlusTree(order=16)
    for k, v in pairs:
        reference.insert(k, v)
    assert sorted(bulk.items()) == sorted(reference.items())
    assert len(bulk) == len(reference)


def test_bulk_load_empty():
    tree = BPlusTree.bulk_load([])
    assert len(tree) == 0
    tree.check_invariants()


def test_bulk_load_supports_deletes_afterwards():
    pairs = [(i, i) for i in range(200)]
    tree = BPlusTree.bulk_load(pairs, order=8)
    for i in range(0, 200, 2):
        assert tree.remove(i) == 1
    tree.check_invariants()
    assert [k for k, _ in tree.items()] == list(range(1, 200, 2))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 5)), max_size=400),
       st.integers(4, 32))
def test_property_bulk_load_oracle(pairs, order):
    tree = BPlusTree.bulk_load(pairs, order=order)
    tree.check_invariants()
    oracle = {}
    for k, v in pairs:
        oracle.setdefault(k, set()).add(v)
    for k, values in oracle.items():
        assert set(tree.get(k)) == values
    assert len(tree) == sum(len(v) for v in oracle.values())
