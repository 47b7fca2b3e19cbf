"""One round trip per search: pending updates ride the search legs.

A search no longer flushes first.  It routes the pending queue exactly
as a flush would and hands each node's envelope to that node's ``search``
RPC; the node parks, fsyncs and replicates the envelope *before* it
validates skips and searches, and the reply carries one outcome per
batch, which the client accounts for and heals with the flush's own
code.  These tests pin the message count, that an empty queue leaves
the RPC untouched, and that every per-partition safety behaviour of the
flush — NACK, refresh, re-send, forwarding, requeue with hints, rescue,
idempotence — holds when the envelope travels inside a search.
"""

import pytest

from repro.chaos.faults import FaultInjector
from repro.cluster.client import _Send
from repro.cluster.messages import IndexUpdate, SearchReply, UpdateBatch
from repro.errors import StaleRoute
from repro.query.parser import parse_query
from repro.replication.hedging import LEG_HISTOGRAM
from repro.sim.rpc import DEFAULT_MSG_BYTES, RpcNetwork

from tests.test_flush_scatter import build, node_of, pending_sizes, rewrite


@pytest.fixture
def rpc_log(monkeypatch):
    """Every ``RpcNetwork.call`` made while the test runs:
    ``(target, method, args, kwargs)``."""
    log = []
    real = RpcNetwork.call

    def call(self, target, method, *args, **kwargs):
        log.append((target, method, args, kwargs))
        return real(self, target, method, *args, **kwargs)

    monkeypatch.setattr(RpcNetwork, "call", call)
    return log


def calls(log, method):
    return [entry for entry in log if entry[1] == method]


def counter(service, name):
    return service.registry.value(name) if name in service.registry else 0


def slots_consistent(client):
    return client._pending_slot == {
        u.file_id: i for i, (_, u) in enumerate(client._pending)}


# -- (a) one client→node RPC per contacted node -------------------------------


@pytest.mark.parametrize("rf", [1, 2])
def test_rewrite_then_search_is_one_rpc_per_node(rf, rpc_log):
    service, client, parts = build(rf=rf)
    client.search("size>=7000")                   # summaries fetched, warm
    rewritten = []
    for p, paths in parts.items():
        rewrite(service, client, paths[2], 7000 + p)
        rewritten.append(paths[2])
    fsyncs = sum(n.wal.fsyncs for n in service.index_nodes.values())
    acks = service.registry.histogram("cluster.client.update_ack_latency_s")
    acked = acks.count
    del rpc_log[:]
    assert client.search("size>=7000") == sorted(rewritten)
    assert calls(rpc_log, "index_update") == []
    searches = calls(rpc_log, "search")
    assert sorted(entry[0] for entry in searches) == [
        "in1", "in2", "in3", "in4"]
    for _, _, _, kwargs in searches:
        batches = kwargs["updates"]
        assert len(batches) == 2                  # two partitions per node
        assert kwargs["request_bytes"] > DEFAULT_MSG_BYTES + sum(
            batch.wire_bytes() for batch in batches)
    # Nothing else left the client; primaries streamed to followers.
    others = {method for _, method, _, _ in rpc_log} - {"search"}
    assert others == ({"replicate_apply"} if rf == 2 else set())
    # Same batches, same fsyncs: one per node envelope.
    assert sum(n.wal.fsyncs for n in service.index_nodes.values()) \
        == fsyncs + 4
    assert client._pending == [] and client.updates_requeued == 0
    assert counter(service, "cluster.client.searches_carrying") == 1
    assert counter(service, "cluster.client.updates_carried") == len(parts)
    assert acks.count == acked + 1                # the update_ack SLO's feed
    if rf == 2:
        for p in parts:
            follower = service.index_nodes[client._route_replicas[p][0]]
            assert (follower.followers[p].applied_seq
                    == client._repl_seq_seen[p])


# -- (b) nothing pending: the RPC is the parent's -------------------------------


def test_search_with_nothing_pending_sends_the_plain_rpc(rpc_log):
    service, client, parts = build()
    client.search("size>=0")
    del rpc_log[:]
    t0 = service.clock.now()
    assert len(client.search("size>=110")) == 30
    plain = service.clock.now() - t0
    searches = calls(rpc_log, "search")
    assert len(searches) == 4
    for _, _, args, kwargs in searches:
        assert len(args) == 3
        assert set(kwargs) == {"local", "epoch", "pruned"}
    assert counter(service, "cluster.client.searches_carrying") == 0
    # ... and a carried envelope is what makes the request longer.
    rewrite(service, client, parts[1][0], 1)
    t0 = service.clock.now()
    client.search("size>=110")
    assert service.clock.now() - t0 > plain


# -- (c) a migrated partition NACKs alone and heals inside the search ----------


def test_carried_batch_to_a_migrated_partition_heals_in_the_same_search(
        rpc_log):
    service, client, parts = build()
    assert node_of(client, 1) == node_of(client, 5) == "in1"
    service.master.migrate_partition(5, "in2")   # behind the client's back
    in1, in2 = service.index_nodes["in1"], service.index_nodes["in2"]
    rewrite(service, client, parts[1][0], 5000)
    rewrite(service, client, parts[5][0], 5000)
    fsyncs = in1.wal.fsyncs, in2.wal.fsyncs
    refreshes = client.route_refreshes
    del rpc_log[:]
    assert client.search("size>=5000") == sorted(
        [parts[1][0], parts[5][0]])
    # The batch NACKed alone (its neighbour was parked, once), shared
    # one refresh with the search's own stale leg, and was re-sent.
    assert client.route_refreshes == refreshes + 1
    assert client.stale_route_nacks == 2          # the batch + the leg
    assert [entry[0] for entry in calls(rpc_log, "index_update")] == ["in2"]
    assert client.updates_requeued == 0 and client._pending == []
    assert node_of(client, 5) == "in2"
    assert (in1.wal.fsyncs, in2.wal.fsyncs) == (fsyncs[0] + 1, fsyncs[1] + 1)
    # The retry round asked the new owner, after the re-send landed.
    assert [entry[0] for entry in calls(rpc_log, "search")].count("in2") == 2


# -- (d) a handed-off partition forwards inside the carried envelope -----------


def test_handed_off_partition_forwards_inside_the_carried_envelope(rpc_log):
    service, client, parts = build()
    in1, in2 = service.index_nodes["in1"], service.index_nodes["in2"]
    in2.handle_install_partition(5, in1.handle_transfer_out(5, "in2"))
    size5 = rewrite(service, client, parts[5][0], 5000)
    rewrite(service, client, parts[1][0], 5000)
    del rpc_log[:]
    assert parts[1][0] in client.search("size>=5000")
    # The only index_update on the wire is in1's relay to the target.
    assert [entry[0] for entry in calls(rpc_log, "index_update")] == ["in2"]
    assert in1.forwarded_updates == 1 and in1.nonowner_applied == 0
    assert pending_sizes(in1, 5) == []            # the old owner never applies
    assert pending_sizes(in2, 5) == [size5]
    assert client._pending == []


# -- (e) a node down requeues only its batches; the next search delivers -------


def test_node_down_requeues_its_batches_and_the_next_search_delivers():
    service, client, parts = build()
    a, b = parts[1][0], parts[2][0]
    assert (node_of(client, 1), node_of(client, 2)) == ("in1", "in2")
    service.index_nodes["in2"].endpoint.fail()
    rewrite(service, client, a, 5000, pid=1)
    rewrite(service, client, b, 5000, pid=1)       # hinted by a
    answer = client.search_detailed("size>=5000")
    assert answer.paths == [a]
    assert answer.degraded and answer.unreachable_nodes == ["in2"]
    (hint, update), = client._pending
    assert update.file_id == service.vfs.stat(b).ino
    assert hint == service.vfs.stat(a).ino
    assert client.updates_requeued == 1 and slots_consistent(client)
    service.index_nodes["in2"].endpoint.recover()
    answer = client.search_detailed("size>=5000")
    assert answer.paths == sorted([a, b]) and not answer.degraded
    assert client._pending == []


# -- (f) park happens before skip validation ------------------------------------


def test_a_skipped_partition_that_receives_a_carried_update_is_searched(
        rpc_log):
    service, client, parts = build()
    in1 = service.index_nodes["in1"]
    assert client.search("size>=5000") == []      # every leg pruned
    assert in1.prunes_validated == 2 and in1.prune_fallbacks == 0
    rewrite(service, client, parts[1][0], 5000)
    del rpc_log[:]
    assert client.search("size>=5000") == [parts[1][0]]
    (_, _, args, kwargs), = [entry for entry in calls(rpc_log, "search")
                             if entry[0] == "in1"]
    assert args[0] == [] and set(kwargs["pruned"]) == {1, 5}   # asked to skip
    assert in1.prune_fallbacks == 1               # 1: parked ops, so searched
    assert in1.prunes_validated == 3              # 5: still skipped


# -- (g) duplicate delivery of a carrying search --------------------------------


class _DuplicateSearches(FaultInjector):
    def message_fate(self, target, method):
        return "duplicate" if method == "search" else "ok"


@pytest.mark.parametrize("rf", [1, 2])
def test_duplicated_carrying_search_is_idempotent(rf):
    seen = {}
    for duplicated in (False, True):
        service, client, parts = build(rf=rf)
        if duplicated:
            service.rpc.faults = _DuplicateSearches(registry=service.registry)
        doomed = service.vfs.stat(parts[3][4]).ino
        for p, paths in parts.items():
            rewrite(service, client, paths[0], 5000 + p)
        client.delete_path_index(doomed)
        answer = client.search("size>=0")
        service.commit_all()
        service.sync_replication()
        seen[duplicated] = (
            answer, client.updates_sent, service.total_indexed_files(),
            {p: service.index_nodes[node_of(client, p)].replicas[p]
                .store.attrs(service.vfs.stat(paths[0]).ino)["size"]
             for p, paths in parts.items()},
            sorted(client._repl_seq_seen) if rf == 2 else None)
        assert parts[3][4] not in answer
        assert client._pending == []
        if duplicated:
            assert counter(service, "cluster.rpc.duplicates") >= 4
    assert seen[True] == seen[False]


# -- (h) a carrying leg is never hedged ---------------------------------------


def test_carrying_leg_is_never_hedged_and_rescued_only_if_the_primary_fails():
    service, client, parts = build(rf=2)
    client.search("size>=0")
    faults = FaultInjector(seed=7, registry=service.registry)
    service.rpc.faults = faults
    faults.slow_node("in1", 1.0)                  # way past the hedge timer
    legs = service.registry.histogram(LEG_HISTOGRAM)
    # A carrying search waits for its straggling primary ...
    rewrite(service, client, parts[1][0], 5000)
    observed = legs.count
    t0 = service.clock.now()
    assert client.search("size>=5000") == [parts[1][0]]
    assert service.clock.now() - t0 > 1.0
    assert counter(service, "cluster.client.hedges") == 0
    assert legs.count == observed + 3             # in1's leg is not a sample
    # ... where a plain one hedges round it.
    t0 = service.clock.now()
    assert client.search("size>=5000") == [parts[1][0]]
    assert service.clock.now() - t0 < 1.0
    assert counter(service, "cluster.client.hedges") == 1
    # Primary down: the envelope requeues like a failed flush's and the
    # follower, sound for everything acked, answers the leg.
    faults.slow_nodes.clear()
    service.index_nodes["in1"].endpoint.fail()
    rewrite(service, client, parts[1][1], 6000)
    answer = client.search_detailed("size>=5000")
    assert answer.paths == [parts[1][0]]          # acked writes only
    assert not answer.degraded and not answer.partial
    assert counter(service, "cluster.client.hedge_rescues") == 1
    assert [u.file_id for _, u in client._pending] == [
        service.vfs.stat(parts[1][1]).ino]
    service.index_nodes["in1"].endpoint.recover()
    assert client.search("size>=6000") == [parts[1][1]]


# -- (i) every search entry point carries ----------------------------------------


def test_every_search_entry_point_carries(rpc_log):
    service, client, parts = build(rf=2)
    client.search("size>=0")
    path = parts[3][0]
    ino = service.vfs.stat(path).ino

    def carried(search):
        size = rewrite(service, client, path, 1000)
        del rpc_log[:]
        found = search(f"size>={size}")
        assert calls(rpc_log, "index_update") == []
        assert sum("updates" in entry[3]
                   for entry in calls(rpc_log, "search")) == 1
        assert client._pending == []
        return found

    assert carried(client.search) == [path]
    assert carried(client.search_ids) == {ino}
    assert carried(lambda q: client.select(q, ["size"])) == [
        {"path": path, "size": service.vfs.stat(path).size}]
    assert carried(lambda q: client.search_directory(f"/d/?{q}")) == [path]
    assert carried(lambda q: service.vfs.readdir(f"/d/?{q}")) == [path]


def test_deadline_partial_answer_while_the_envelope_requeues():
    service, client, parts = build(rf=2)
    client.search("size>=0")
    in1 = service.index_nodes["in1"]
    for acg_id in (1, 5):     # in1's followers fall behind the acked mark
        follower = service.index_nodes[client._route_replicas[acg_id][0]]
        follower.followers[acg_id].applied_seq -= 1
    in1.endpoint.fail()
    rewrite(service, client, parts[1][0], 5000)
    rewrite(service, client, parts[2][0], 5000)
    answer = client.search_detailed("size>=0", deadline_s=5.0)
    assert answer.partial and set(answer.lagging_partitions) == {1, 5}
    assert len(answer.paths) == 40 and not answer.degraded
    # in2's batch landed with its leg; in1's waits for the primary.
    assert [u.file_id for _, u in client._pending] == [
        service.vfs.stat(parts[1][0]).ino]
    # Without the opt-in the lagging follower is refused.
    answer = client.search_detailed("size>=0")
    assert answer.degraded and not answer.partial


# -- (j) a batch placed on a node the fan-out did not know -----------------------


def test_batch_placed_on_a_new_node_is_found_by_the_same_search(rpc_log):
    service, client, parts = build(nodes=5, files=20)
    assert set(client._route_nodes.values()) == {"in1", "in2", "in3", "in4"}
    assert all(len(paths) == 5 for paths in parts.values())     # all full
    # A file whose producer has no route yet, and every partition full:
    # the client places it on a fresh slab.
    service.vfs.write_file("/d/unindexed", 10, pid=0)
    fd = service.vfs.open("/d/unindexed", pid=77)
    service.vfs.close(fd)
    service.vfs.write_file("/d/new", 9000, pid=77)
    client.index_path("/d/new", pid=77)
    del rpc_log[:]
    assert client.search("size>=9000") == ["/d/new"]
    assert len(calls(rpc_log, "allocate_partitions")) == 1
    assert calls(rpc_log, "index_update") == []
    (node, _, args, kwargs), = [entry for entry in calls(rpc_log, "search")
                                if "updates" in entry[3]]
    assert node == "in5"
    (batch,) = kwargs["updates"]
    assert batch.epoch == client._route_epoch     # stamped like any other
    assert args[0] == [batch.acg_id]              # ... and searched there
    assert client._pending == []


def test_envelope_only_leg_to_a_dead_node_requeues_without_degrading():
    service, client, parts = build(nodes=5, files=20)
    assert "in5" not in client._route_nodes.values()
    ino = 10**6                       # a file this client never placed
    # A probe-located delete for a node the client fans nothing out to:
    # an envelope with no leg.
    send = _Send("in5", UpdateBatch(9, (IndexUpdate.delete(ino),),
                                    client._route_epoch))
    client._route_pending = lambda: ([send], {})
    service.index_nodes["in5"].endpoint.fail()
    answer = client.search_detailed("size>=0")
    assert len(answer.paths) == 20 and not answer.degraded
    assert [u.file_id for _, u in client._pending] == [ino]


# -- the reply shape -----------------------------------------------------------


def test_search_reply_outcomes_are_per_batch_in_order():
    service, client, parts = build()
    in1 = service.index_nodes["in1"]
    good = UpdateBatch(1, (IndexUpdate.upsert(10**6, {"size": 1}, "/x"),),
                       client._route_epoch)
    stale = UpdateBatch(2, good.updates, client._route_epoch)   # in2's
    reply = in1.handle_search([1], parse_query("size>=0"), None,
                              epoch=client._route_epoch,
                              updates=(stale, good))
    assert isinstance(reply, SearchReply)
    nack, ack = reply.update_outcomes
    assert isinstance(nack.error, StaleRoute) and ack.ok and ack.value == 1
    assert "/x" in reply.results[0].paths         # parked, then searched
    plain = in1.handle_search([1], parse_query("size>=0"), None,
                              epoch=client._route_epoch)
    assert plain.update_outcomes == ()


# -- O(1) coalescing keeps the queue's rules -----------------------------------


def test_pending_slot_index_tracks_the_queue():
    service, client, parts = build()
    a, b, c = parts[1][0], parts[2][0], parts[3][0]
    ino = {p: service.vfs.stat(p).ino for p in (a, b, c)}
    rewrite(service, client, a, 1, pid=1)
    rewrite(service, client, b, 1, pid=1)          # hinted by a
    rewrite(service, client, c, 1, pid=2)
    assert [u.file_id for _, u in client._pending] == [
        ino[a], ino[b], ino[c]]
    # A re-queue of b keeps its slot and — arriving unhinted — its hint.
    service.vfs.write_file(b, 1, pid=3)
    client.index_path(b, pid=3)
    assert [(h, u.file_id) for h, u in client._pending][1] == (ino[a], ino[b])
    assert client._pending[1][1].attr_dict["size"] == service.vfs.stat(b).size
    assert slots_consistent(client)
    # Unlinking a queued file drops its slot and re-numbers the rest.
    service.vfs.unlink(a, pid=1)
    assert ino[a] not in client._pending_slot and slots_consistent(client)
    service.vfs.rename(c, "/d/renamed", pid=2)
    assert [u.path for _, u in client._pending][-1] == "/d/renamed"
    assert slots_consistent(client)
    client.flush_updates()
    assert client._pending == [] and client._pending_slot == {}
