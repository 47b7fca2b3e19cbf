"""A replica's remembered segment against a fresh encode.

``AcgReplica.segment`` hands back the bytes of the replica's last
pending-free encoding while nothing ``encode_segment`` reads has
changed — node name, incarnation, applied count, ACG-graph edits, spec
names — and encodes otherwise.  Checkpoints without a pending tail,
freezes and segment repairs take their bytes from it.  A derandomised
hypothesis run drives one Index Node's partition through every way its
state changes (commits, parked updates, ACG fragments, index backfills,
installs, re-incarnation, freeze and thaw) and compares, after each
step, what the node writes with a fresh ``encode_segment`` of the same
replica.  The guards below it pin the work: a checkpoint of unchanged
partitions encodes nothing and charges what a fresh encode would, and a
follower bootstrap sends the remembered segment, the bytes a fresh
encode gives.
"""

from typing import Dict, List
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.index_node as index_node_module
import repro.cluster.segments as segments_module
from repro.cluster.index_node import AcgReplica, IndexNode
from repro.cluster.messages import IndexUpdate, UpdateBatch
from repro.cluster.persistence import read_checkpoint, replica_path
from repro.cluster.segments import encode_segment, segment_key
from repro.indexstructures import IndexKind
from repro.query.planner import IndexSpec
from repro.sim.clock import SimClock
from repro.sim.machine import Machine

from tests.conftest import machine_examples, whole_node
from tests.test_flush_scatter import build as build_replicated
from tests.test_tiered_storage import build, freeze_all, populate

ACG = 7
SPECS = (IndexSpec("by_size", IndexKind.BTREE, ("size",)),
         IndexSpec("by_kw", IndexKind.HASH, ("keyword",)),
         IndexSpec("by_owner", IndexKind.HASH, ("owner",)),
         IndexSpec("kd", IndexKind.KDTREE, ("size", "mtime")))
FILES = st.integers(0, 7)
UPSERTS = st.lists(st.tuples(
    FILES,
    st.fixed_dictionaries({}, optional={
        "size": st.sampled_from([1, 2.5, 7]),
        "mtime": st.sampled_from([0.5, 3]),
        "owner": st.sampled_from(["ann", "bob"])}),
    st.sampled_from(["/src/a/x.c", "/src/b/y.c", "/doc/x.txt"])),
    min_size=1, max_size=4)
UPDATES = st.lists(st.one_of(
    UPSERTS.map(lambda ups: [IndexUpdate.upsert(f, attrs, path=path)
                             for f, attrs, path in ups]),
    FILES.map(lambda f: [IndexUpdate.delete(f)])),
    min_size=1, max_size=3).map(lambda parts: sum(parts, []))
RECORDS = st.lists(st.one_of(
    st.tuples(FILES, FILES, st.integers(1, 3)).filter(lambda r: r[0] != r[1]),
    st.tuples(FILES, st.just(-1), st.just(0))), max_size=4)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("apply"), UPDATES),
    st.tuples(st.just("park"), UPDATES),
    st.tuples(st.just("drain")),
    st.tuples(st.just("flush_acg"), RECORDS),
    st.tuples(st.just("create_index"), st.sampled_from(SPECS)),
    st.tuples(st.just("install"), UPSERTS, RECORDS),
    st.tuples(st.just("reincarnate")),
    st.tuples(st.just("freeze")),
    st.tuples(st.just("repair")),
    st.tuples(st.just("thaw")),
    st.tuples(st.just("checkpoint"))), min_size=1, max_size=14)


def new_node() -> IndexNode:
    node = whole_node("in1")
    node.tiering = True
    node.handle_create_index(SPECS[0])
    node.handle_own_partition(ACG, 1)
    return node


def source_segment(upserts, records) -> bytes:
    """A partition another node would extract: the upserts' files and
    the ACG records, as the segment ``install_partition`` receives."""
    source = AcgReplica(ACG, Machine(SimClock()))
    source.ensure_index(SPECS[0])
    source.merge_graph(records)
    source.apply_batch([IndexUpdate.upsert(f, attrs, path=path)
                        for f, attrs, path in upserts])
    return encode_segment(source, "in2")


def run(node: IndexNode, step) -> None:
    kind, *args = step
    replica = node.replicas[ACG]
    if kind == "apply":
        node._thaw(ACG, reason="write")
        replica.apply_batch(args[0])
    elif kind == "park":
        node.handle_index_update([UpdateBatch(ACG, tuple(args[0]), 1)])
    elif kind == "drain":
        node.cache.commit_for_search(ACG)
    elif kind == "flush_acg":
        node.handle_flush_acg([(ACG, args[0])])
    elif kind == "create_index":
        node.handle_create_index(args[0])
    elif kind == "install":
        node.handle_install_partition(ACG, source_segment(*args))
    elif kind == "reincarnate":
        node._incarnate(replica)
    elif kind == "freeze":
        if ACG not in node.frozen and not node.cache.pending_ops(ACG):
            node._freeze_one(ACG, replica, node.machine.clock.now())
            assert node.object_store.get(segment_key("in1", ACG)) \
                == encode_segment(replica, "in1")
    elif kind == "repair":
        if ACG in node.frozen:
            node._repair_segment(ACG, node.frozen[ACG])
            assert node.object_store.get(segment_key("in1", ACG)) \
                == encode_segment(replica, "in1")
    elif kind == "thaw":
        node._thaw(ACG, reason="write")
    else:
        assert node.checkpoint_to_shared() == 1


@settings(max_examples=machine_examples(40), derandomize=True, deadline=None)
@given(STEPS)
def test_remembered_segments_match_a_fresh_encode(steps):
    node = new_node()
    for step in steps:
        run(node, step)
        replica = node.replicas[ACG]
        pending = node.cache.pending_ops(ACG)
        path = replica_path("in1", ACG)
        assert node._checkpoint_one(replica, pending) \
            == read_checkpoint(node.shared_vfs, path) \
            == encode_segment(replica, "in1", pending=pending), step
        # Tail-free, whatever is pending: the remembered segment.
        assert node._checkpoint_one(replica) \
            == encode_segment(replica, "in1"), step


def count_encodes(monkeypatch) -> List[int]:
    """Count every encode, whichever binding runs it (a freeze's
    ``dump_segment`` calls the segments module's own)."""
    calls = [0]
    original = segments_module.encode_segment

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(index_node_module, "encode_segment", counted)
    monkeypatch.setattr(segments_module, "encode_segment", counted)
    return calls


def checkpoint_all(service) -> Dict[str, int]:
    """One ``checkpoint_to_shared`` per node; the shared-device bytes
    each appended."""
    appended = {}
    for name, node in service.index_nodes.items():
        before = node._shared_device.stats.bytes_written
        node.checkpoint_to_shared()
        appended[name] = node._shared_device.stats.bytes_written - before
    return appended


def expected_charge(node: IndexNode) -> int:
    """What a checkpoint of ``node`` appends with every segment encoded
    afresh: a frozen partition's segment, a live one's index files."""
    return sum(len(encode_segment(replica, node.name))
               if acg_id in node.frozen else replica.resident_bytes()
               for acg_id, replica in node.replicas.items())


def test_a_checkpoint_of_unchanged_partitions_encodes_nothing(monkeypatch):
    service, client = build(tiering=True, freeze_age_s=3.0, min_bytes=1)
    populate(service, client, n=60)
    frozen = freeze_all(service)
    assert frozen >= 3
    nodes = service.index_nodes.values()
    reused = sum(n.checkpoint_reuses for n in nodes)
    calls = count_encodes(monkeypatch)
    first = checkpoint_all(service)
    assert calls[0] == 0    # the freezes' encodes are remembered
    assert checkpoint_all(service) == first
    assert calls[0] == 0
    for name, node in service.index_nodes.items():
        assert first[name] == expected_charge(node)
        for acg_id, replica in node.replicas.items():
            assert read_checkpoint(service.vfs, replica_path(name, acg_id)) \
                == encode_segment(replica, name)
    assert sum(n.checkpoint_reuses for n in nodes) - reused \
        == 2 * sum(len(n.replicas) for n in nodes)
    # One ACG fragment for one frozen partition: that one re-encodes.
    node = next(n for n in nodes if n.frozen)
    acg_id = min(node.frozen)
    a, b = sorted(node.replicas[acg_id].store.file_ids())[:2]
    node.handle_flush_acg([(acg_id, [(a, b, 1)])])
    calls[0] = 0
    after = checkpoint_all(service)
    assert calls[0] == 1
    assert after[node.name] == expected_charge(node)
    assert read_checkpoint(service.vfs, replica_path(node.name, acg_id)) \
        == encode_segment(node.replicas[acg_id], node.name)


def bootstrap(node: IndexNode, acg_id: int) -> bytes:
    """Have ``node``'s follower of ``acg_id`` re-installed by the
    catch-up; returns the segment the install carried."""
    sent = []
    call = node.rpc.call

    def spy(target, rpc, *args, **kwargs):
        if rpc == "install_follower":
            sent.append(args[-1])
        return call(target, rpc, *args, **kwargs)
    node._reset_repl(acg_id)
    with mock.patch.object(node.rpc, "call", spy):
        node.catch_up()
    assert len(sent) == 1
    return sent[0]


def test_a_follower_bootstrap_sends_the_remembered_segment(monkeypatch):
    service, client, parts = build_replicated(rf=2)
    acg_id = min(parts)
    node = next(n for n in service.index_nodes.values()
                if acg_id in n.repl)
    replica = node.replicas[acg_id]
    calls = count_encodes(monkeypatch)
    # Remembered by an earlier encode (here a tail-free checkpoint's):
    # the bootstrap encodes nothing.
    remembered, _ = replica.segment(node.name, encode_segment)
    calls[0] = 0
    assert bootstrap(node, acg_id) == remembered
    assert calls[0] == 0
    assert remembered == encode_segment(replica, node.name)
    # The graph changed since: one encode, and what a fresh one gives.
    a, b = sorted(replica.store.file_ids())[:2]
    node.handle_flush_acg([(acg_id, [(a, b, 1)])])
    calls[0] = 0
    data = bootstrap(node, acg_id)
    assert calls[0] == 1
    assert data == encode_segment(replica, node.name) != remembered
