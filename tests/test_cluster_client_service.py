"""PropellerClient + PropellerService integration."""

import pytest

from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.errors import QueryError
from repro.fs.vfs import OpenMode
from repro.indexstructures import IndexKind


def populate(service, client, n=300, pid=9, big_every=10):
    vfs = service.vfs
    vfs.mkdir("/data")
    paths = []
    for i in range(n):
        size = 64 * 1024**2 if i % big_every == 0 else 1024
        path = f"/data/file{i:05d}.bin"
        vfs.write_file(path, size, pid=pid)
        paths.append(path)
    client.index_paths(paths, pid=pid)
    client.flush_updates()
    return paths


def test_a_deployment_wires_its_own_collaborators_into_every_component():
    """Nodes, clients and the health plane are built with the service's
    own network, shared storage, object store, registry and journal —
    the same objects, not copies."""
    service = PropellerService(num_index_nodes=3, replication_factor=2,
                               standby_master=True)
    client = service.make_client()
    for node in service.index_nodes.values():
        assert node.rpc is service.rpc
        assert node.shared_vfs is service.vfs
        assert node.object_store is service.object_store
        assert node.registry is service.registry
        assert node.journal is service.journal
    assert client.rpc is service.rpc and client.vfs is service.vfs
    assert client.registry is service.registry
    assert client.journal is service.journal
    for master in service.masters:
        assert master.rpc is service.rpc
        assert master.registry is service.registry
        assert master.journal is service.journal
    assert service.rpc.registry is service.registry
    assert service.health.slos is service.slos
    assert service.health.registry is service.slos.registry \
        is service.registry
    assert service.health.journal is service.slos.journal \
        is service.journal


def test_search_matches_ground_truth(indexed_service):
    service, client = indexed_service
    populate(service, client)
    got = client.search("size>16m")
    want = sorted(p for p, i in service.vfs.namespace.files()
                  if i.size > 16 * 1024**2)
    assert got == want


def test_search_ids(indexed_service):
    service, client = indexed_service
    populate(service, client, n=50)
    ids = client.search_ids("size>16m")
    want = {i.ino for _, i in service.vfs.namespace.files()
            if i.size > 16 * 1024**2}
    assert ids == want


def test_keyword_search(indexed_service):
    service, client = indexed_service
    populate(service, client, n=30)
    assert client.search("keyword:file00007") == ["/data/file00007.bin"]


def test_keyword_term_with_punctuation_finds_the_file(indexed_service):
    """``docs/query-language.md``'s own example.  As one token,
    ``prefs.js`` equals no keyword of any file: the Bloom summaries
    "proved" every partition empty and the answer was silently [] — and
    the brute-force oracle agreed, because it shares the parser."""
    from repro.baselines.bruteforce import BruteForceSearcher

    service, client = indexed_service
    vfs = service.vfs
    for directory in ("/home", "/home/john", "/home/john/.mozilla"):
        vfs.mkdir(directory)
    wanted = "/home/john/.mozilla/prefs.js"
    paths = [wanted, "/home/john/.mozilla/prefs.css", "/home/john/notes.js"]
    for path in paths:
        vfs.write_file(path, 100, pid=9)
    client.index_paths(paths, pid=9)
    service.commit_all()
    service.advance(6.0)     # a heartbeat: the summaries reach the client
    for query in ("keyword:prefs.js", "keyword:'prefs.js'",
                  "keyword:js & keyword:prefs"):
        assert client.search(query) == [wanted], query
        assert BruteForceSearcher(vfs).query(query) == [wanted], query
    assert client.search("keyword:john & !keyword:prefs.js") == paths[1:]


def test_query_directory_scoping(indexed_service):
    service, client = indexed_service
    populate(service, client, n=30)
    service.vfs.mkdir("/other")
    service.vfs.write_file("/other/huge.bin", 64 * 1024**2, pid=9)
    client.index_path("/other/huge.bin", pid=9)
    scoped = client.search_directory("/data/?size>16m")
    assert all(p.startswith("/data/") for p in scoped)
    assert "/other/huge.bin" in client.search_directory("/?size>16m")


def test_search_reflects_every_acknowledged_update(indexed_service):
    """The consistency property: no staleness, ever."""
    service, client = indexed_service
    populate(service, client, n=100)
    vfs = service.vfs
    # Update a file, search immediately — must see the new size.
    fd = vfs.open("/data/file00001.bin", OpenMode.WRITE, pid=9)
    vfs.write(fd, 128 * 1024**2)
    vfs.close(fd)
    client.index_path("/data/file00001.bin", pid=9)
    assert "/data/file00001.bin" in client.search("size>100m")


def test_unlink_disappears_from_results(indexed_service):
    service, client = indexed_service
    populate(service, client, n=40)
    before = client.search("size>16m")
    victim = before[0]
    service.vfs.unlink(victim, pid=9)
    after = client.search("size>16m")
    assert victim not in after
    assert set(after) == set(before) - {victim}


def test_empty_cluster_search(indexed_service):
    _, client = indexed_service
    assert client.search("size>0") == []


def test_invalid_query_raises(indexed_service):
    _, client = indexed_service
    with pytest.raises(QueryError):
        client.search("size >")


def test_updates_batch_by_default(indexed_service):
    service, client = indexed_service
    vfs = service.vfs
    vfs.mkdir("/b")
    for i in range(client.batch_size - 1):
        vfs.write_file(f"/b/f{i}", 10, pid=3)
        client.index_path(f"/b/f{i}", pid=3)
    assert client.updates_sent == 0          # still buffered
    vfs.write_file("/b/last", 10, pid=3)
    client.index_path("/b/last", pid=3)      # fills the batch
    assert client.updates_sent == client.batch_size


def test_acg_flush_reaches_index_nodes(indexed_service):
    service, client = indexed_service
    vfs = service.vfs
    vfs.mkdir("/src")
    a = vfs.write_file("/src/a.c", 10, pid=7)
    client.index_path("/src/a.c", pid=7)
    vfs.clock.charge(0.01)
    b = vfs.write_file("/src/a.o", 10, pid=7)
    client.index_path("/src/a.o", pid=7)
    client.flush_updates()
    client.process_finished(7)
    total_weight = sum(replica.graph.weight(a.ino, b.ino)
                       for node in service.index_nodes.values()
                       for replica in node.replicas.values())
    assert total_weight >= 1


def test_causal_files_share_partition(indexed_service):
    service, client = indexed_service
    vfs = service.vfs
    vfs.mkdir("/build")
    previous = None
    for i in range(20):
        path = f"/build/out{i}.o"
        vfs.write_file(path, 10, pid=4)
        client.index_path(path, pid=4)
    client.flush_updates()
    partitions = {service.master.partitions.partition_of(i.ino)
                  for p, i in service.vfs.namespace.files("/build")}
    assert len(partitions) == 1


def test_background_split_keeps_results_complete():
    service = PropellerService(
        num_index_nodes=2,
        policy=PartitioningPolicy(split_threshold=60, cluster_target=30))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    vfs = service.vfs
    vfs.mkdir("/d")
    for i in range(150):
        vfs.write_file(f"/d/f{i:03d}", 10 + i, pid=5)
        client.index_path(f"/d/f{i:03d}", pid=5)
    client.flush_updates()
    client.flush_acg()
    service.master.poll_heartbeats()
    assert len(service.master.splits) >= 1
    got = client.search("size>0")
    assert got == sorted(p for p, _ in vfs.namespace.files())


def test_single_node_mode():
    service = PropellerService(num_index_nodes=1, single_node=True)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    vfs = service.vfs
    vfs.mkdir("/d")
    vfs.write_file("/d/big", 64 * 1024**2, pid=1)
    client.index_path("/d/big", pid=1)
    assert client.search("size>1m") == ["/d/big"]
    assert len(service.cluster) == 1   # MN and IN co-located


def test_service_validates_node_count():
    with pytest.raises(ValueError):
        PropellerService(num_index_nodes=0)


def test_advance_runs_background_commits(indexed_service):
    service, client = indexed_service
    vfs = service.vfs
    vfs.mkdir("/d")
    vfs.write_file("/d/f", 100, pid=1)
    client.index_path("/d/f", pid=1)
    client.flush_updates()
    pending_before = sum(len(n.cache) for n in service.index_nodes.values())
    assert pending_before == 1
    service.advance(10.0)   # past the 5 s cache timeout
    pending_after = sum(len(n.cache) for n in service.index_nodes.values())
    assert pending_after == 0


def test_total_indexed_files_counts_committed(indexed_service):
    service, client = indexed_service
    populate(service, client, n=25)
    service.commit_all()
    assert service.total_indexed_files() == 25


def test_pid_filtered_clients_see_disjoint_processes():
    service = PropellerService(num_index_nodes=2)
    client_a = service.make_client(pid_filter={1})
    client_b = service.make_client(pid_filter={2})
    vfs = service.vfs
    vfs.mkdir("/d")
    vfs.write_file("/d/a", 10, pid=1)
    vfs.write_file("/d/b", 10, pid=2)
    assert client_a.access_manager.peek().vertex_count == 1
    assert client_b.access_manager.peek().vertex_count == 1
