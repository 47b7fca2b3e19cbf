"""The bench contract: every name ``perf/`` reaches into ``src/`` by
string still resolves.

``perf/layertrace.py`` patches functions by name (``cls.__dict__[fn]``
for methods, ``getattr(module, fn)`` for module-level functions) and
``perf/workloads.py`` drives a handful of service/client internals.  A
rename in ``src/`` would otherwise surface only when the benchmark runs.
"""

import importlib
import inspect

from perf.layertrace import _CLASSMETHODS, TARGETS

from repro.cluster import PropellerService
from repro.cluster.index_node import IndexNode


def test_every_layertrace_target_resolves():
    for _layer, module_name, cls_name, names in TARGETS:
        module = importlib.import_module(module_name)
        for fn_name in names:
            if cls_name is None:
                target = getattr(module, fn_name, None)
            else:
                target = getattr(module, cls_name).__dict__.get(fn_name)
            assert callable(target), (module_name, cls_name, fn_name)
    for _layer, module_name, cls_name, fn_name in _CLASSMETHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert isinstance(cls.__dict__.get(fn_name), classmethod), \
            (module_name, cls_name, fn_name)


def test_harness_entry_points_keep_their_signatures():
    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert {"pid_filter", "batch_size"} <= params(PropellerService.make_client)
    assert {"enabled", "freeze_age_s", "min_bytes"} \
        <= params(PropellerService.set_tiering)
    assert callable(IndexNode.drop_caches)
    service = PropellerService(num_index_nodes=1)
    client = service.make_client(pid_filter={1}, batch_size=8)
    assert callable(service.memory_tiers) and callable(service.drop_caches)
    assert any(task.action == service._checkpoint_all
               for task in service._tasks)
    assert service.loop._heap \
        and all(len(entry) == 3 for entry in service.loop._heap)
    assert isinstance(client._file_routes, dict)
    assert isinstance(client._route_nodes, dict)


def count_calls(monkeypatch, calls, targets):
    """Wrap each ``(class, names)`` target at class level, the way
    ``layertrace`` installs — before the deployment is built — counting
    the calls that arrive through the patched name."""
    for cls, names in targets:
        for name in names:
            def counted(*args, _original=cls.__dict__[name], _name=name,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(cls, name, counted)


def test_update_path_runs_through_the_names_perf_patches(monkeypatch):
    """Resolving is not enough: the per-layer rows only mean what
    ``perf/README.md`` says while a flush actually *calls* the patched
    names (a handler reached some other way would book its time to the
    caller's layer) — and while a search that carries the pending
    envelope on its legs still parks, fsyncs and streams through the
    same class-level names, with no ``flush_updates`` in front of it."""
    from repro.cluster.client import PropellerClient
    from repro.cluster.wal import WriteAheadLog
    from repro.indexstructures import IndexKind
    from repro.sim.rpc import RpcNetwork

    calls = {}
    count_calls(monkeypatch, calls, (
        (PropellerClient, ("flush_updates", "flush_acg")),
        (IndexNode, ("handle_index_update", "handle_replicate_apply")),
        (WriteAheadLog, ("append_batch",)),
        (RpcNetwork, ("call",))))
    service = PropellerService(num_index_nodes=2, replication_factor=2)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    service.vfs.write_file("/a", 10, pid=5)
    client.index_path("/a", pid=5)
    client.flush_updates()
    service.sync_replication()
    update_path = {"handle_index_update", "handle_replicate_apply",
                   "append_batch", "call"}
    service.vfs.write_file("/a", 10, pid=5)
    client.index_path("/a", pid=5)
    calls.clear()
    client.flush_updates()                        # the explicit flush
    assert set(calls) == update_path | {"flush_updates"}
    service.vfs.write_file("/a", 10, pid=5)
    client.index_path("/a", pid=5)
    calls.clear()
    client.process_finished(5)
    assert client.search("size>0") == ["/a"]      # carries the rewrite
    assert set(calls) == update_path | {"flush_acg"}
    registry = service.registry
    assert registry.histogram("update.batch_size", unit="updates").count >= 3
    assert sum(n.wal.fsyncs for n in service.index_nodes.values()) >= 3
    assert sum(n.wal.bytes_written for n in service.index_nodes.values()) > 0
    assert sum(n.repl_streamed for n in service.index_nodes.values()) >= 1
    assert service.cluster.network.stats.bytes_sent > 0


def test_search_path_runs_through_the_names_perf_patches(monkeypatch):
    """The search-side twin: a query is prepared once and evaluated in
    bulk, but one client search — a result-cache miss on a live
    partition, a summary-pruned partition, a frozen partition — still
    *calls* every query-stack name ``perf/layertrace.py`` patches,
    installed (as it installs them) before the deployment is built, so
    the ``query.*`` / ``cluster.*`` rows keep meaning what
    ``perf/README.md`` says.  One hot name is not in ``TARGETS``:
    ``BPlusTree.range_values``, the values-only leaf-slice scan the range
    access path now uses — its time is booked to its caller's layer,
    ``query.executor``; ``BPlusTree.range`` (the pair generator) serves
    snapshot encoding."""
    from perf.layertrace import LayerTracer
    from repro.core.partitioner import PartitioningPolicy
    from repro.indexstructures import IndexKind
    from repro.indexstructures.btree import BPlusTree

    calls = {}
    count_calls(monkeypatch, calls, ((BPlusTree, ("range_values",)),))
    tracer = LayerTracer()
    tracer.install()
    try:
        service = PropellerService(
            num_index_nodes=2,
            policy=PartitioningPolicy(split_threshold=50, cluster_target=10))
        client = service.make_client()
        client.create_index("by_size", IndexKind.BTREE, ["size"])
        vfs = service.vfs
        small = [f"/small{i}" for i in range(4)]
        big = [f"/big{i}" for i in range(8)]
        # One writer per group of four: each file joins its producer's
        # partition, so a group is a partition.
        for i, path in enumerate(small + big):
            vfs.write_file(path, (10 if path in small else 5000) + i,
                           pid=7 + i // 4)
            client.index_path(path, pid=7 + i // 4)
        client.flush_updates()
        home = {path: client._file_routes[vfs.stat(path).ino]
                for path in small + big}
        assert len(set(home.values())) == 3 and home[big[0]] != home[big[7]]
        assert not {home[p] for p in small} & {home[p] for p in big}
        service.set_tiering(True, freeze_age_s=20.0, min_bytes=1)
        service.advance(30.0)                      # everything freezes
        vfs.write_file(big[0], 6000, pid=5)        # ... one partition thaws
        client.index_path(big[0], pid=5)
        client.flush_updates()
        service.commit_all()
        service.advance(6.0)                       # summaries reach the client
        frozen = {a for n in service.index_nodes.values() for a in n.frozen}
        assert home[big[0]] not in frozen
        assert {home[p] for p in big} & frozen and {home[p] for p in small} <= frozen
        tracer.start(service.clock)
        assert client.search("size>=5000") == sorted(big)
        tracer.stop()
        # Skipped: the small files' partition and the slab's empty one.
        assert service.registry.value("search.partitions_pruned") == 2
        assert service.registry.value("search.partitions_searched") == 2
        for name in ("parse_query", "summary_may_match", "plan_query_set",
                     "execute_plans", "execute", "SegmentView.search",
                     "IndexNode.handle_search"):
            assert tracer.fn_calls.get(name, 0) >= 1, name
        assert calls == {"range_values": 1}
        # The repeat hits the client's query memo and the nodes' result
        # caches: nothing is parsed, planned or executed again.
        before = dict(tracer.fn_calls)
        tracer.start(service.clock)
        assert client.search("size>=5000") == sorted(big)
        tracer.stop()
        for name in ("parse_query", "plan_query_set", "execute_plans",
                     "SegmentView.search"):
            assert tracer.fn_calls[name] == before[name], name
        assert tracer.fn_calls["summary_may_match"] \
            > before["summary_may_match"]
    finally:
        tracer.uninstall()


def test_ingest_path_runs_through_the_names_perf_patches(monkeypatch):
    """The interception path binds its observer hooks once and keeps the
    open's inode on the descriptor — but every event still goes through
    the class-level names ``perf/layertrace.py`` patches, patched (as it
    patches them) before the deployment is built: a hook bound some other
    way, or a fast path inlined past one of these, would move time out of
    the ``fs.vfs`` / ``fs.interceptor`` / ``core.acg`` rows.  The call
    counts may fall; none may read 0."""
    from repro.core.acg import AccessCausalityGraph
    from repro.fs.interceptor import FileAccessManager
    from repro.fs.vfs import VirtualFileSystem
    from repro.indexstructures import IndexKind
    from repro.workloads.apps import (THRIFT_SPEC, CompileApplication,
                                      scaled_spec)
    from repro.workloads.replay import replay_trace

    calls = {}
    patched = (
        (VirtualFileSystem, ("open", "write", "close", "exists", "stat",
                             "write_file", "create", "mkdir")),
        (FileAccessManager, ("on_open", "on_close", "on_create")),
        (AccessCausalityGraph, ("add_file", "add_causality", "merge")),
    )
    count_calls(monkeypatch, calls, patched)
    service = PropellerService(num_index_nodes=2)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    app = CompileApplication(scaled_spec(THRIFT_SPEC, 0.05))
    events = app.trace()
    replay_trace(service, client, events, app.path_of,
                 finish_processes=False)
    assert client.flush_acg() > 0
    assert set(calls) == {name for _, names in patched for name in names}
    # Same events as ever: one open and one close hook per trace event,
    # plus the system-pid materialisation of each pre-existing file.
    assert calls["open"] >= len(events)
    assert calls["close"] == calls["on_open"] == calls["on_close"] \
        == calls["open"]


def test_only_the_cold_tier_calls_the_segment_names_perf_patches():
    """``perf/tests`` holds that ``cluster.segments`` is the cold tier:
    zero calls on every workload but ``cold-tier``.  A live node's
    periodic checkpoints and follower bootstraps write and read the same
    format through ``encode_segment`` / ``decode_segment`` — booked to
    the node that runs them — and only a freeze or a hydration goes
    through the patched ``dump_segment`` / ``load_segment``."""
    from perf.layertrace import LayerTracer
    from repro.cluster.persistence import list_checkpoints
    from repro.indexstructures import IndexKind

    tracer = LayerTracer()
    tracer.install()
    try:
        service = PropellerService(num_index_nodes=2, replication_factor=2)
        client = service.make_client()
        client.create_index("by_size", IndexKind.BTREE, ["size"])
        tracer.start(service.clock)
        for i in range(8):
            service.vfs.write_file(f"/f{i}", 4096 + i, pid=5)
            client.index_path(f"/f{i}", pid=5)
        client.flush_updates()
        service.advance(35.0)        # past one checkpoint period
        assert any(n.followers for n in service.index_nodes.values())
        assert tracer.fn_calls["IndexNode.checkpoint_to_shared"] >= 2
        assert any(list_checkpoints(service.vfs, name)
                   for name in service.index_nodes)
        assert tracer.calls.get("cluster.segments", 0) == 0
        service.set_tiering(True, freeze_age_s=3.0, min_bytes=1)
        service.advance(10.0)
        assert client.search("size>0") == [f"/f{i}" for i in range(8)]
        assert tracer.fn_calls["dump_segment"] >= 1
        assert tracer.fn_calls["load_segment"] >= 1
    finally:
        tracer.uninstall()
