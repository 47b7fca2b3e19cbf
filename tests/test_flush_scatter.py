"""The scattered flush: one envelope per Index Node, every node in
flight at once.

``flush_updates`` and ``flush_acg`` ship all of a node's partitions in
one RPC and overlap the RPCs of distinct nodes; the node parks each
partition, pays one fsync per envelope and streams replication with one
``replicate_apply`` per follower node, followers overlapped.  These
tests pin the cost rule (same node sums, distinct nodes max), the message
bound, and that every per-partition safety behaviour — NACK, requeue,
deposal, torn-frame recovery, read-your-writes — survived the merge.
"""

import pytest

from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.errors import NodeDown
from repro.indexstructures import IndexKind
from repro.sim.clock import SimClock
from repro.sim.rpc import RetryPolicy


def build(nodes=4, rf=1, files=40, **service_kwargs):
    """(service, client, by_partition): ``files`` indexed five to a
    partition.  On four nodes that is partitions 1-8, two per node
    (``p`` and ``p + 4`` on ``in<p>``), each followed — at RF > 1 — by
    the next node(s) round the ring."""
    service = PropellerService(
        num_index_nodes=nodes, replication_factor=rf,
        policy=PartitioningPolicy(split_threshold=10**9, cluster_target=5),
        **service_kwargs)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    service.vfs.mkdir("/d")
    for i in range(files):
        path = f"/d/f{i:03d}"
        # One process per file: no causality hint pulls files together.
        service.vfs.write_file(path, 100 + i, pid=100 + i)
        client.index_path(path, pid=100 + i)
    client.flush_updates()
    service.advance(10.0)        # commit, heartbeat, truncate the WALs
    service.sync_replication()
    by_partition = {}
    for path, inode in service.vfs.namespace.files("/d"):
        by_partition.setdefault(client._file_routes[inode.ino], []).append(path)
    return service, client, by_partition


def rewrite(service, client, path, grow, pid=1):
    """Append ``grow`` bytes and queue the file; returns its new size."""
    service.vfs.write_file(path, grow, pid=pid)
    client.index_path(path, pid=pid)
    return service.vfs.stat(path).size


def flush_cost(service, client):
    t0 = service.clock.now()
    client.flush_updates()
    return service.clock.now() - t0


def node_of(client, acg_id):
    return client._route_nodes[acg_id]


def pending_sizes(node, acg_id):
    return [u.attr_dict["size"] for u in node.cache.pending_ops(acg_id)]


# -- (a) the cost rule ----------------------------------------------------------


def test_flush_costs_the_slowest_node_not_the_sum():
    service, client, parts = build()
    assert {node_of(client, p) for p in (1, 2, 3, 4)} == {
        "in1", "in2", "in3", "in4"}
    single = {}
    for p in (1, 2, 3, 4):
        rewrite(service, client, parts[p][0], 5000 + p)
        single[p] = flush_cost(service, client)
    for p in (1, 2, 3, 4):
        rewrite(service, client, parts[p][1], 6000 + p)
    together = flush_cost(service, client)
    assert together == pytest.approx(max(single.values()), rel=0.02)
    assert together < 0.5 * sum(single.values())


def test_two_partitions_on_one_node_cost_more_than_one():
    service, client, parts = build()
    assert node_of(client, 1) == node_of(client, 5) == "in1"
    rewrite(service, client, parts[1][0], 5001)
    one = flush_cost(service, client)
    rewrite(service, client, parts[1][1], 5002)
    rewrite(service, client, parts[5][1], 5003)
    two = flush_cost(service, client)
    # Work landing on one node is serial — but it is one RPC, not two.
    assert one < two < 1.5 * one


def test_rf3_envelope_overlaps_its_two_followers():
    cost = {}
    for rf in (1, 2, 3):
        service, client, parts = build(rf=rf)
        rewrite(service, client, parts[1][0], 5001)
        cost[rf] = flush_cost(service, client)
        if rf == 3:
            state = service.index_nodes["in1"].repl[1]
            assert len(state.followers) == 2
            assert all(state.acked[f] == state.log.last_seq
                       for f in state.followers)
    follower_leg = cost[2] - cost[1]
    assert follower_leg > 0
    assert cost[3] - cost[1] == pytest.approx(follower_leg, rel=0.05)


# -- (b) messages per flush ----------------------------------------------------


@pytest.mark.parametrize("rf", [1, 2, 3])
def test_messages_per_flush_bounded_by_nodes_not_partitions(rf):
    service, client, parts = build(rf=rf)
    for p, paths in parts.items():
        rewrite(service, client, paths[0], 5000 + p)
    primaries = {node_of(client, p) for p in parts}
    pairs = {(node_of(client, p), follower) for p in parts
             for follower in client._route_replicas.get(p, ())}
    stats = service.cluster.network.stats
    before = stats.messages
    assert client.flush_updates() == len(parts)
    sent = stats.messages - before
    assert 2 * len(primaries) <= sent <= 2 * (len(primaries) + len(pairs))
    # Eight partitions travelled; a per-partition protocol would have
    # paid a round trip for each, and another per follower.
    assert sent < 2 * len(parts) * rf


# -- (c) a not-owned partition NACKs alone ------------------------------------


def test_stale_partition_nacks_alone_and_heals_by_resend():
    service, client, parts = build()
    assert node_of(client, 1) == node_of(client, 5) == "in1"
    # Partition 5 moves to in2 behind the client's back.
    service.master.migrate_partition(5, "in2")
    assert 5 not in service.index_nodes["in1"].replicas
    size1 = rewrite(service, client, parts[1][0], 5000)
    size5 = rewrite(service, client, parts[5][0], 5000)
    in1, in2 = service.index_nodes["in1"], service.index_nodes["in2"]
    fsyncs = in1.wal.fsyncs
    assert client.flush_updates() == 2
    assert client.stale_route_nacks == 1
    assert client.updates_requeued == 0 and client._pending == []
    assert node_of(client, 5) == "in2"
    # The neighbour was parked once (not again with the re-send), the
    # NACKed partition landed once, on its new owner.
    assert pending_sizes(in1, 1) == [size1]
    assert in1.wal.fsyncs == fsyncs + 1
    assert pending_sizes(in2, 5) == [size5]
    assert client.search("size>=5000") == sorted(
        [parts[1][0], parts[5][0]])


def test_handed_off_partition_forwards_inside_the_envelope():
    service, client, parts = build()
    in1, in2 = service.index_nodes["in1"], service.index_nodes["in2"]
    # Dual-ownership window: in1 holds partition 5 behind a hand-off
    # intent, the target already has it.
    in2.handle_install_partition(5, in1.handle_transfer_out(5, "in2"))
    size1 = rewrite(service, client, parts[1][0], 5000)
    size5 = rewrite(service, client, parts[5][0], 5000)
    assert client.flush_updates() == 2
    assert pending_sizes(in1, 1) == [size1]
    assert pending_sizes(in1, 5) == []          # the old owner never applies
    assert pending_sizes(in2, 5) == [size5]
    assert in1.forwarded_updates == 1 and in1.nonowner_applied == 0


# -- (d) an unreachable node requeues only its own groups -------------------


def test_unreachable_node_requeues_only_its_groups_with_hints():
    service, client, parts = build()
    a, b = parts[1][0], parts[2][0]
    assert (node_of(client, 1), node_of(client, 2)) == ("in1", "in2")
    service.index_nodes["in2"].endpoint.fail()
    size_a = rewrite(service, client, a, 5000, pid=1)
    size_b = rewrite(service, client, b, 5000, pid=1)   # hinted by a
    assert client.flush_updates() == 1
    assert pending_sizes(service.index_nodes["in1"], 1) == [size_a]
    (hint, update), = client._pending
    assert update.file_id == service.vfs.stat(b).ino
    assert hint == service.vfs.stat(a).ino
    assert client.updates_requeued == 1
    service.index_nodes["in2"].endpoint.recover()
    assert client.flush_updates() == 1
    assert pending_sizes(service.index_nodes["in2"], 2) == [size_b]


# -- (e) a stale replication epoch deposes one partition --------------------


def test_stale_repl_epoch_deposes_that_partition_only():
    service, client, parts = build(rf=2)
    in1, in2 = service.index_nodes["in1"], service.index_nodes["in2"]
    assert in1.repl[1].followers == in1.repl[5].followers == ("in2",)
    # in2 has heard of a newer primary for partition 5 only.
    in2.followers[5].repl_epoch += 1
    seq5 = in2.followers[5].applied_seq
    rewrite(service, client, parts[1][0], 5001)
    rewrite(service, client, parts[5][0], 5005)
    assert client.flush_updates() == 2           # acks never hinge on followers
    assert 5 not in in1.repl and in1.repl_deposed == 1
    assert in2.followers[5].applied_seq == seq5
    state = in1.repl[1]
    assert state.acked["in2"] == state.log.last_seq
    assert in2.followers[1].applied_seq == state.log.last_seq


def test_follower_that_lost_one_partition_is_reinstalled_for_it_only():
    service, client, parts = build(rf=2)
    in1, in2 = service.index_nodes["in1"], service.index_nodes["in2"]
    in2.handle_drop_follower(5)
    rewrite(service, client, parts[1][0], 5001)
    rewrite(service, client, parts[5][0], 5005)
    assert client.flush_updates() == 2
    assert in1.repl[5].acked["in2"] == -1        # marked for re-install
    assert in1.repl[1].acked["in2"] == in1.repl[1].log.last_seq
    service.advance(6.0)                          # the tick's catch-up heals
    assert in2.followers[5].applied_seq == in1.repl[5].log.last_seq


# -- (f) crash between two WAL frames of one envelope ------------------------


def test_crash_between_frames_replays_whole_frames_and_resend_is_idempotent():
    service, client, parts = build(nodes=1, files=20)
    node = service.index_nodes["in1"]
    doomed = parts[1][4]
    doomed_ino = service.vfs.stat(doomed).ino
    ino = service.vfs.stat(parts[1][0]).ino

    def envelope(grow):
        rewrite(service, client, parts[1][0], grow)
        client.delete_path_index(doomed_ino)
        rewrite(service, client, parts[2][0], grow)
        rewrite(service, client, parts[2][1], grow)
        client.flush_updates()

    fsyncs = node.wal.fsyncs
    envelope(5000)
    assert node.wal.fsyncs == fsyncs + 1          # two frames, one fsync
    assert len(list(node.wal.replay())) == 2
    # Power dies inside the second frame: the envelope was never acked.
    node.crash(torn_tail_bytes=7)
    assert node.restart() == 2                    # frame 1, whole
    assert node.wal.replay_dropped == 1           # frame 2, whole
    assert node.replicas[1].store.attrs(ino)["size"] >= 5000
    assert doomed_ino not in node.replicas[1].store
    assert client.search("size>=5000") == [parts[1][0]]
    # The client, un-acked, sends the envelope again (same content: the
    # files have not changed) — and a second crash-replay of it lands in
    # the same state.
    envelope(0)
    node.crash()
    node.restart()
    assert client.search("size>=5000") == sorted(
        [parts[1][0], parts[2][0], parts[2][1]])
    assert doomed not in client.search("size>=0")
    assert service.total_indexed_files() == 19


# -- (g) read-your-writes across a scattered flush ---------------------------


@pytest.mark.parametrize("rf", [1, 2])
def test_read_your_writes_across_scattered_flush(rf):
    service, client, parts = build(rf=rf)
    rewritten = []
    for p, paths in parts.items():
        rewrite(service, client, paths[2], 7000 + p)
        rewritten.append(paths[2])
    # The search's own flush scatters to all four nodes.
    assert client.search("size>=7000") == sorted(rewritten)
    if rf == 2:
        # Every ack waited for its partition's follower: a hedged read
        # at the client's watermark would already be sound.
        for p in parts:
            follower = service.index_nodes[client._route_replicas[p][0]]
            assert (follower.followers[p].applied_seq
                    == client._repl_seq_seen[p])


# -- (h) nothing escapes a parallel thunk -----------------------------------


def test_no_exception_escapes_a_parallel_thunk(monkeypatch):
    escaped = []
    real = SimClock.parallel

    def guarded(clock, thunks):
        def guard(thunk):
            def run():
                try:
                    return thunk()
                except BaseException as exc:
                    escaped.append(exc)
                    raise
            return run
        return real(clock, [guard(t) for t in thunks])

    monkeypatch.setattr(SimClock, "parallel", guarded)
    service, client, parts = build(
        rf=2, retry_policy=RetryPolicy(max_attempts=2))
    in1, in2 = service.index_nodes["in1"], service.index_nodes["in2"]
    service.master.migrate_partition(7, "in1")    # a NACK (in3 -> in1)
    in2.followers[5].repl_epoch += 1              # a stale repl epoch
    in2.handle_drop_follower(1)                   # a lost follower state
    service.index_nodes["in4"].endpoint.fail()    # an unreachable node
    for p, paths in parts.items():
        rewrite(service, client, paths[0], 5000 + p)
    t0 = service.clock.now()
    delivered = client.flush_updates()
    assert delivered == len(parts) - 2            # in4's two partitions wait
    assert len(client._pending) == 2
    assert service.clock.now() > t0
    assert escaped == []
    # flush_acg raises for a dead node — after the scatter, not inside it.
    fd = service.vfs.open(parts[4][0], pid=55)
    service.vfs.close(fd)
    t0 = service.clock.now()
    with pytest.raises(NodeDown):
        client.process_finished(55)
    assert service.clock.now() >= t0
    assert escaped == []


# -- tracing and metrics the change must keep true ---------------------------


def test_profiled_search_with_pending_updates_sums_to_its_latency():
    service, client, parts = build(rf=2)
    service.enable_tracing()
    for p, paths in parts.items():
        rewrite(service, client, paths[0], 5000 + p)
    t0 = service.clock.now()
    profile = client.profile_search("size>=5000")
    assert profile.total_s == pytest.approx(service.clock.now() - t0)
    stages = profile.by_stage()
    assert sum(s["self_s"] for s in stages.values()) == pytest.approx(
        profile.total_s)
    # The pending envelopes rode the search legs: no scatter of their
    # own, one ``carry`` stage inside each node's ``rpc:search``.
    names = [row.span.name for row in profile.rows]
    assert "update_scatter" not in names and "rpc:index_update" not in names
    assert [c.name for c in profile.root.children] == [
        "route_pending", "rpc:summary_table", "fanout"]
    fanout = profile.root.children[-1]
    assert fanout.attributes["parallel"] is True
    assert [c.name for c in fanout.children] == ["rpc:search"] * 4
    for leg in fanout.children:
        assert leg.children[0].name == "carry"
        assert [c.name for c in leg.children[0].children] == ["replicate"]
        assert "cache_commit" in [c.name for c in leg.children[1:]]
    # The critical path counts the slowest leg only.
    assert fanout.duration == pytest.approx(
        max(c.duration for c in fanout.children))
    assert {"carry", "replicate", "rpc:replicate_apply"} <= set(stages)


def test_batch_size_is_observed_once_per_node_envelope():
    service, client, parts = build()
    histogram = service.registry.histogram("update.batch_size",
                                           unit="updates")
    count, total = histogram.count, histogram.total
    for p, paths in parts.items():
        rewrite(service, client, paths[0], 5000 + p)
        rewrite(service, client, paths[1], 6000 + p)
    fsyncs = sum(n.wal.fsyncs for n in service.index_nodes.values())
    assert client.flush_updates() == 16
    assert histogram.count - count == 4           # four nodes, four envelopes
    assert histogram.total - total == 16
    assert sum(n.wal.fsyncs for n in service.index_nodes.values()) \
        == fsyncs + 4
