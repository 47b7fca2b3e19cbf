"""Trace replay against a live service, and whole-system determinism."""

import hashlib
from dataclasses import replace

import pytest

from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.core.trace import AccessEvent
from repro.indexstructures import IndexKind
from repro.workloads.apps import THRIFT_SPEC, CompileApplication, scaled_spec
from repro.workloads.replay import replay_trace


def build(threshold=1000):
    service = PropellerService(
        num_index_nodes=2,
        policy=PartitioningPolicy(split_threshold=threshold, cluster_target=100))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    client.create_index("by_kw", IndexKind.HASH, ["keyword"])
    return service, client


def ev(pid, fid, mode, t):
    return AccessEvent(pid=pid, file_id=fid,
                       read="r" in mode, write="w" in mode, t_open=t)


def test_replay_creates_files_and_indexes_writes():
    service, client = build()
    events = [ev(1, 0, "r", 0.0), ev(1, 1, "r", 1.0), ev(1, 2, "w", 2.0)]
    stats = replay_trace(service, client, events,
                         path_of=lambda f: f"/t/file{f}")
    assert stats.events == 3
    assert stats.files_created == 3
    assert stats.reads == 2
    assert stats.index_updates >= 3
    assert stats.processes == 1
    assert service.vfs.namespace.file_count == 3


def test_replay_repeated_writes_append():
    service, client = build()
    events = [ev(1, 0, "w", 0.0), ev(1, 0, "w", 1.0), ev(1, 0, "w", 2.0)]
    stats = replay_trace(service, client, events,
                         path_of=lambda f: "/t/out", write_bytes=100)
    assert service.vfs.stat("/t/out").size == 300
    assert stats.writes == 2          # first write was the create


def test_replay_builds_same_acg_as_generator():
    service, client = build()
    app = CompileApplication(scaled_spec(THRIFT_SPEC, 0.15))
    replay_trace(service, client, app.trace(), app.path_of)
    reference = app.build_acg()
    # The service-side ACGs (union over replicas) carry the same total
    # causality weight as the offline-built graph.
    total_weight = sum(replica.graph.total_weight
                       for node in service.index_nodes.values()
                       for replica in node.replicas.values())
    assert total_weight == reference.total_weight


def test_replay_searchable_afterwards():
    service, client = build()
    app = CompileApplication(scaled_spec(THRIFT_SPEC, 0.1))
    stats = replay_trace(service, client, app.trace(), app.path_of)
    got = client.search("size>0")
    assert len(got) == service.vfs.namespace.file_count
    assert stats.index_updates > 0


def test_replay_without_indexing():
    service, client = build()
    events = [ev(1, 0, "w", 0.0)]
    stats = replay_trace(service, client, events,
                         path_of=lambda f: "/t/x", index_on_write=False)
    assert stats.index_updates == 0
    assert client.search("size>0") == []


def test_replay_colocates_compile_outputs():
    service, client = build(threshold=5000)
    app = CompileApplication(scaled_spec(THRIFT_SPEC, 0.2))
    replay_trace(service, client, app.trace(), app.path_of)
    partitions = set()
    for unit in range(10):
        ino = service.vfs.stat(app.path_of(app.object_ids[unit])).ino
        partitions.add(service.master.partitions.partition_of(ino))
    assert len(partitions) <= 2


# -- determinism ---------------------------------------------------------------------

def run_whole_workload():
    service, client = build()
    app = CompileApplication(scaled_spec(THRIFT_SPEC, 0.1))
    replay_trace(service, client, app.trace(), app.path_of)
    service.master.poll_heartbeats()
    results = client.search("size>2000")
    return service.clock.now(), tuple(results), service.acg_count()


def test_whole_system_is_deterministic():
    """Two identical runs produce identical virtual times, results and
    partition counts — no hidden dependence on set/dict iteration order
    or the process hash seed."""
    assert run_whole_workload() == run_whole_workload()


def digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def test_golden_replay_clock_causality_and_wal_bytes():
    """Everything the interception path hands on — the simulated clock,
    the client's causality graph edge by edge *in order* (partitioners
    iterate it), the graphs the nodes merged it into, and the WAL bytes —
    equals what the commit before the path was made cheap produced
    (PR 22: values recorded at 8eefa60).  A host-clock optimisation that
    moves any of these changed behaviour."""
    service, client = build()
    app = CompileApplication(
        scaled_spec(replace(THRIFT_SPEC, rebuilds=2, seed=7), 0.1))
    stats = replay_trace(service, client, app.trace(), app.path_of,
                         finish_processes=False)
    assert (stats.events, stats.index_updates) == (371, 115)
    assert service.clock.now() == 0.015831703335968346
    graph = client.access_manager.peek()
    edges = list(graph.edges())
    assert (len(edges), digest(edges)) == (125, "9be71dece703783c")
    assert digest(list(graph.vertices())) == "f28ac1794b83c093"
    client.flush_acg()
    assert service.clock.now() == 0.016126899288537517
    golden = {"in1": (65, "ee756a79ab7f6c76", 6696, "1a3ad9edcf13a155"),
              "in2": (60, "e1abdef1888aeeae", 6366, "937433a79f10aa4c")}
    for name, node in sorted(service.index_nodes.items()):
        graphs = [(acg_id, list(replica.graph.vertices()),
                   list(replica.graph.edges()))
                  for acg_id, replica in sorted(node.replicas.items())]
        wal = bytes(node.wal._buffer)
        assert (sum(len(g[2]) for g in graphs), digest(graphs),
                node.wal.bytes_written,
                hashlib.sha256(wal).hexdigest()[:16]) == golden[name]
        assert len(wal) == node.wal.bytes_written


def test_replay_leaves_no_dirt_behind():
    """``index_path`` has read the file's current state, so the dirt its
    close-after-write left is spent: a client driven by ``index_path``
    must not keep one dirty entry per file ever written, nor re-send them
    all on a later ``index_dirty``."""
    service, client = build()
    app = CompileApplication(scaled_spec(THRIFT_SPEC, 0.1))
    stats = replay_trace(service, client, app.trace(), app.path_of)
    assert stats.writes > 0
    assert client.access_manager.dirty_count() == 0
    sent = client.updates_sent
    assert client.index_dirty() == 0
    client.flush_updates()
    assert client.updates_sent == sent
    # A write that lands after the index_path marks the file again, once.
    path = app.path_of(app.object_ids[0])
    for _ in range(2):
        service.vfs.write_file(path, 10, pid=9)
        client.index_path(path, pid=9)
        service.vfs.write_file(path, 10, pid=9)
        service.vfs.write_file(path, 10, pid=9)
        assert client.access_manager.dirty_count() == 1
        assert client.index_dirty(pid=9) == 1
    client.flush_updates()
    assert client.search("size>2000").count(path) == 1
