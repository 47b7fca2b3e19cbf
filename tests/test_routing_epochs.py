"""Epoch-versioned routing: route-table versioning, client cache
behavior off the Master's hot path, and the edge cases where an epoch
transition races another cluster event (migration vs. rename, split vs.
failover, a badly stale client, a NACK storm after defragmentation, and
a source crash mid-migration)."""

import pytest

from repro.chaos.faults import FaultInjector
from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.errors import StaleRoute
from repro.indexstructures import IndexKind


def build(nodes=3, split=10**9, target=8):
    service = PropellerService(
        num_index_nodes=nodes,
        policy=PartitioningPolicy(split_threshold=split, cluster_target=target))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    return service, client


def index_files(service, client, n, pid=7, prefix="f"):
    if not service.vfs.exists("/d"):
        service.vfs.mkdir("/d", parents=True)
    paths = []
    for i in range(n):
        path = f"/d/{prefix}{pid}_{i:03d}"
        service.vfs.write_file(path, 100 + i, pid=pid)
        client.index_path(path, pid=pid)
        paths.append(path)
    client.flush_updates()
    return paths


def hosts_of(service, file_id):
    """Live nodes whose committed replicas hold a file."""
    names = []
    for name, node in sorted(service.index_nodes.items()):
        if not node.endpoint.up:
            continue
        for replica in node.replicas.values():
            if file_id in replica.store:
                names.append(name)
    return names


# -- route table versioning ------------------------------------------------------


def test_route_table_full_fresh_delta():
    service, client = build()
    index_files(service, client, 10, pid=7)
    master = service.master

    full = master.route_table(0)
    assert full.full and not full.fresh
    assert full.epoch == master.partitions.epoch
    assert {e.acg_id for e in full.entries} == {
        p.partition_id for p in master.partitions.partitions()}

    fresh = master.route_table(full.epoch)
    assert fresh.fresh and not fresh.full and fresh.entries == ()

    # One routing change: a client at the old epoch gets a delta naming
    # only the changed partition.
    moved = next(p for p in master.partitions.partitions() if p.node)
    target = next(n for n in master.index_nodes if n != moved.node)
    master.migrate_partition(moved.partition_id, target)
    delta = master.route_table(full.epoch)
    assert not delta.full and not delta.fresh
    assert {e.acg_id for e in delta.entries} == {moved.partition_id}
    assert all(e.node == target for e in delta.entries)

    # A client too far behind the change log falls back to a full table.
    master._route_log.clear()
    assert master.route_table(full.epoch).full


def test_merged_away_partition_reported_dropped_in_delta():
    # target=2 keeps each process's dribble in its own partition (the
    # client would otherwise pack both into one open partition).
    service, client = build(target=2)
    index_files(service, client, 3, pid=1)
    index_files(service, client, 3, pid=2)
    service.commit_all()
    master = service.master
    before = master.route_table(0)

    def hosted(p):
        node = service.index_nodes.get(p.node) if p.node else None
        replica = node.replicas.get(p.partition_id) if node else None
        return replica.file_count if replica else 0

    small = [p for p in master.partitions.partitions() if hosted(p) > 0]
    assert len(small) >= 2
    master.merge_partitions(small[0].partition_id, small[1].partition_id)
    delta = master.route_table(before.epoch)
    dropped = {e.acg_id for e in delta.entries if e.size == -1}
    assert small[1].partition_id in dropped


def test_allocate_partitions_spreads_across_nodes():
    service, client = build(nodes=3)
    table = service.master.allocate_partitions(6, since_epoch=0)
    assert table.epoch == service.master.partitions.epoch
    placed = {}
    for p in service.master.partitions.partitions():
        placed.setdefault(p.node, []).append(p.partition_id)
    # Every node got some of the slab; no node got more than its share
    # plus one.
    assert set(placed) == set(service.master.index_nodes)
    counts = sorted(len(v) for v in placed.values())
    assert counts[-1] - counts[0] <= 1


# -- client cache off the hot path ----------------------------------------------


def test_steady_state_flush_skips_master():
    service, client = build()
    index_files(service, client, 16, pid=3)
    reg = service.registry
    rpcs_before = reg.value("cluster.master.route_rpcs")
    # Causally-hinted files resolve against the cached placement: the
    # steady-state flush makes zero Master routing calls.
    index_files(service, client, 16, pid=3)
    assert reg.value("cluster.master.route_rpcs") == rpcs_before
    assert reg.value("cluster.client.route_cache_hits") >= 16


def test_stamped_update_to_nonowner_nacks():
    service, client = build()
    index_files(service, client, 4, pid=1)
    owned = {acg for name, node in service.index_nodes.items()
             for acg in node.replicas}
    missing_acg = max(owned) + 1000
    node = next(iter(service.index_nodes.values()))
    from repro.cluster.messages import IndexUpdate, UpdateBatch
    (outcome,) = node.handle_index_update([UpdateBatch(
        missing_acg, (IndexUpdate.upsert(999, {"size": 1}, path="/x"),),
        epoch=service.master.partitions.epoch)])
    assert isinstance(outcome.error, StaleRoute)
    assert node.stale_route_nacks >= 1


def test_unlink_after_an_unseen_migration_leaves_no_shell_on_the_old_owner():
    """The unlink's delete for a client-placed file goes by the cached
    route; when the partition has moved behind the client's back the old
    owner must NACK it — an unstamped delete used to re-create an empty
    replica there, which then answered searches as the owner (found by
    ``test_stateful_operations``)."""
    service, client = build()
    paths = index_files(service, client, 6, pid=1)
    service.commit_all()
    acg_id = client._file_routes[service.vfs.stat(paths[0]).ino]
    source = client._route_nodes[acg_id]
    target = next(n for n in service.index_nodes if n != source)
    service.master.migrate_partition(acg_id, target)
    assert acg_id not in service.index_nodes[source].replicas
    service.vfs.unlink(paths[0], pid=1)
    assert acg_id not in service.index_nodes[source].replicas   # NACKed
    assert [u.file_id for _, u in client._pending]              # and queued
    assert client.search("size>=0") == sorted(paths[1:])
    assert client._pending == [] and client.lost_deletes == []
    assert client._route_nodes[acg_id] == target


def test_rewrite_after_an_unseen_migration_stays_in_its_partition(monkeypatch):
    """A refresh that names a partition this client has files in asks the
    Master where they are now — once, for all of them — and a file the
    Master never heard of is where the client put it.  Evicting the
    routes instead sent the next rewrite to the Master, which placed the
    "unknown" file as new: one file, two partitions, both answering."""
    service, client = build()
    paths = index_files(service, client, 20, pid=7)
    service.commit_all()
    service.advance(6)
    routes = dict(client._file_routes)
    assert set(routes.values()) == {1} and client._route_nodes[1] == "in1"
    service.master.migrate_partition(1, "in2")      # behind the client's back

    master_calls = []
    real = type(service.rpc).call

    def call(self, target, method, *args, **kwargs):
        if target == "master":
            master_calls.append((method, args))
        return real(self, target, method, *args, **kwargs)

    monkeypatch.setattr(type(service.rpc), "call", call)
    service.vfs.write_file(paths[5], 50, pid=7)
    client.index_path(paths[5], pid=7)
    assert client.flush_updates() == 1              # NACK, refresh, re-send
    after_refresh = list(master_calls)
    service.vfs.write_file(paths[0], 7000, pid=7)
    client.index_path(paths[0], pid=7)
    assert client.flush_updates() == 1
    ino = service.vfs.stat(paths[0]).ino
    service.commit_all()
    assert hosts_of(service, ino) == ["in2"]
    assert paths[0] not in client.search("size<=100")
    assert client.search("size>=7000") == [paths[0]]
    # The migration dropped no file route, and settling the 20 cost one
    # batched lookup with the refresh — no per-file Master call, then or
    # for the second rewrite.
    assert client._file_routes == routes
    routing_calls = [call for call in master_calls
                     if call[0] != "summary_table"]      # the searches' poll
    assert routing_calls == after_refresh
    assert [method for method, _ in after_refresh] == [
        "route_table", "lookup_file"]
    assert after_refresh[1][1] == (sorted(routes),)


@pytest.mark.xfail(strict=True, reason=(
    "open: a node accepts a batch for a partition it hosts whatever the "
    "batch's epoch, so a rewrite routed by a pre-split table lands in the "
    "half the file left (ROADMAP, 'Delete the remaining twins')"))
def test_rewrite_after_an_unseen_split_stays_in_one_partition():
    """The other door to a twice-indexed file: not a second placement,
    a stale first one.  The stamp is there; the node does not read it."""
    service, client = build(split=12)
    paths = index_files(service, client, 20, pid=7)
    service.commit_all()
    service.master.poll_heartbeats()
    service.master.poll_heartbeats()                # size reported, then split
    assert service.master.splits
    for path in paths:
        service.vfs.write_file(path, 5000, pid=7)
        client.index_path(path, pid=7)
    client.flush_updates()
    service.commit_all()
    assert all(len(hosts_of(service, service.vfs.stat(path).ino)) == 1
               for path in paths)
    assert client.search("size<=200") == []


def test_lost_grant_is_repaired_from_the_heartbeat_not_by_the_data_path():
    """``own_partition`` is best-effort.  A node that never got it NACKs
    the partition's updates — nothing on the data path makes it host one
    — the client requeues, and the Master re-grants when the node's
    heartbeat omits a partition placed there."""
    service, client = build(nodes=3)
    injector = FaultInjector(seed=0)
    injector.arm_method_fault("in1", "own_partition")
    service.rpc.faults = injector
    if not service.vfs.exists("/d"):
        service.vfs.mkdir("/d")
    paths = [f"/d/g{i}" for i in range(8)]
    for i, path in enumerate(paths):                # no producers: spread
        service.vfs.write_file(path, 10 + i, pid=100 + i)
        client.index_path(path, pid=100 + i)
    delivered = client.flush_updates()
    in1 = service.index_nodes["in1"]
    ungranted = [p.partition_id
                 for p in service.master.partitions.partitions()
                 if p.node == "in1" and p.partition_id not in in1.replicas]
    assert len(ungranted) == 1, "the data path created the partition"
    (acg_id,) = ungranted
    waiting = sorted(u.file_id for _, u in client._pending)
    assert waiting == sorted(f for f, a in client._file_routes.items()
                             if a == acg_id) and waiting
    assert delivered == len(paths) - len(waiting)
    assert client.stale_route_nacks == len(waiting)
    # Another flush before the repair: NACKed again, still nothing hosted.
    assert client.flush_updates() == 0
    assert acg_id not in in1.replicas
    service.master.poll_heartbeats()                # heartbeat omits it: re-grant
    assert acg_id in in1.replicas
    assert acg_id in dict(in1.make_heartbeat().acg_sizes)
    assert client.flush_updates() == len(waiting)
    assert client._pending == []
    service.commit_all()
    for path in paths:
        assert len(hosts_of(service, service.vfs.stat(path).ino)) == 1
    assert client.search("size>=0") == sorted(paths)


def test_client_several_epochs_stale_converges():
    service, client = build()
    paths = index_files(service, client, 24, pid=1)
    assert len(client.search("size>0")) == 24
    master = service.master

    # The Master reroutes several partitions behind the client's back —
    # each migration bumps the epoch at least once.
    stale_epoch = client._route_epoch
    nodes = list(master.index_nodes)
    hosted = [p for p in master.partitions.partitions()
              if p.node and service.index_nodes[p.node]
              .replicas.get(p.partition_id)]
    for i, p in enumerate(hosted[:3]):
        target = next(n for n in nodes if n != p.node)
        master.migrate_partition(p.partition_id, target)
    assert master.partitions.epoch > stale_epoch + 2
    assert client._route_epoch == stale_epoch

    # A stale client still gets complete answers (NACK → refresh →
    # retry) and lands on the current epoch.
    got = client.search("size>0")
    assert sorted(got) == sorted(paths)
    assert client._route_epoch == master.partitions.epoch

    # And its next update batch delivers without requeue debt.
    index_files(service, client, 4, pid=1)
    assert client._pending == []


def test_nack_storm_after_merge_small_partitions():
    # target=2 keeps each process's dribble in its own small partition.
    service, client = build(target=2)
    # Many single-process dribbles leave many small partitions.
    for pid in range(1, 9):
        index_files(service, client, 3, pid=pid)
    assert len(client.search("size>0")) == 24
    master = service.master
    master.poll_heartbeats()          # teach the Master the real sizes
    merges = master.merge_small_partitions(min_size=4)
    assert merges >= 2                # a real defragmentation happened

    refreshes_before = service.registry.value("cluster.client.route_refreshes")
    # Touch every file again: the client's cached routes for merged-away
    # partitions all NACK, yet one refresh round heals the whole batch.
    for pid in range(1, 9):
        index_files(service, client, 3, pid=pid)
    assert client._pending == []
    assert service.registry.value("cluster.client.stale_route_nacks") > 0
    refreshes = (service.registry.value("cluster.client.route_refreshes")
                 - refreshes_before)
    assert refreshes <= 8             # one per flush, not one per NACK
    assert len(client.search("size>0")) == 24
    assert client._route_epoch == master.partitions.epoch


# -- epoch transitions racing cluster events -------------------------------------


def test_rename_during_migration_window():
    """An update routed to the old owner during the dual-ownership
    window is forwarded, never applied by the handed-off source."""
    service, client = build()
    paths = index_files(service, client, 8, pid=5)
    master = service.master
    partition = next(p for p in master.partitions.partitions()
                     if p.node and service.index_nodes[p.node]
                     .replicas.get(p.partition_id))
    source = partition.node
    target = next(n for n in master.index_nodes if n != source)

    # Drop the finish_migration RPC: the flip happens but the source
    # keeps its (handed-off) replica — the dual-ownership window stays
    # open until the next heartbeat round retries the cleanup.
    injector = FaultInjector(seed=0)
    injector.arm_method_fault(source, "finish_migration")
    service.rpc.faults = injector
    master.migrate_partition(partition.partition_id, target)
    assert master.migration_log[-1].outcome == "finish_deferred"
    src_node = service.index_nodes[source]
    assert partition.partition_id in src_node.handoff_intents

    # Rename a file of the migrated partition.  The client's cache still
    # routes it to the source, which must forward — not apply.
    old_path = paths[0]
    file_id = service.vfs.stat(old_path).ino
    new_path = "/d/renamed"
    service.vfs.rename(old_path, new_path)
    client.index_path(new_path, pid=5)
    client.flush_updates()
    assert src_node.nonowner_applied == 0
    got = client.search("size>0")
    assert new_path in got and old_path not in got

    # The deferred finish retries on the heartbeat round; afterwards
    # exactly one node hosts the file.
    master.poll_heartbeats()
    assert master.migration_log[-1].outcome == "done"
    assert partition.partition_id not in src_node.replicas
    assert hosts_of(service, file_id) == [target]


def test_split_racing_failover():
    """A partition crosses the split threshold, but its owner dies
    before the heartbeat round: failover re-homes it first, and the
    split then happens on the adopter."""
    service, client = build(split=40)
    index_files(service, client, 60, pid=9)
    service.commit_all()
    service._checkpoint_all()
    master = service.master
    big = next(p for p in master.partitions.partitions()
               if p.node and service.index_nodes[p.node]
               .replicas.get(p.partition_id)
               and service.index_nodes[p.node]
               .replicas[p.partition_id].file_count > 40)
    victim = big.node
    service.fail_node(victim)
    moved = service.failover(victim)
    assert moved >= 1
    assert big.node != victim and big.node is not None

    # The adopter's next heartbeat reports the oversize; the split runs
    # there, and both halves obey the threshold.
    master.poll_heartbeats()
    assert any(d.acg_id == big.partition_id for d in master.splits)
    sizes = [master._effective_size(p)
             for p in master.partitions.partitions()]
    assert max(sizes) <= 40
    assert len(client.search("size>0")) == 60


def test_migration_racing_source_crash():
    """Source crashes after the flip but before finish_migration: WAL
    replay must not resurrect the handed-off partition, and the debris
    retry completes the protocol."""
    service, client = build()
    paths = index_files(service, client, 10, pid=2)
    service.commit_all()
    master = service.master
    partition = next(p for p in master.partitions.partitions()
                     if p.node and service.index_nodes[p.node]
                     .replicas.get(p.partition_id)
                     and service.index_nodes[p.node]
                     .replicas[p.partition_id].file_count > 0)
    source, acg_id = partition.node, partition.partition_id
    target = next(n for n in master.index_nodes if n != source)

    injector = FaultInjector(seed=0)
    injector.arm_method_fault(source, "finish_migration")
    service.rpc.faults = injector
    moved = master.migrate_partition(acg_id, target)
    assert moved == 10
    assert master.migration_log[-1].outcome == "finish_deferred"

    # Crash the old owner and restart it: its WAL still holds this
    # partition's records, but the durable handoff intent makes replay
    # skip them — nothing handed off is re-acquired through the log.
    src_node = service.index_nodes[source]
    src_node.crash()
    service.recover_node(source)
    assert src_node.wal_replay_skipped_total >= 10
    # The disk-backed copy legitimately survives the restart behind the
    # handoff intent: the source forwards/NACKs but never serves it, so
    # a search sees each file exactly once.
    assert acg_id in src_node.handoff_intents
    assert sorted(client.search("size>0")) == sorted(paths)

    # The heartbeat round drives the deferred finish; only then does the
    # debris copy disappear and ownership become single again.
    master.poll_heartbeats()
    assert master.migration_log[-1].outcome == "done"
    assert acg_id not in src_node.handoff_intents
    assert acg_id not in src_node.replicas
    for path in paths:
        assert hosts_of(service, service.vfs.stat(path).ino) == [target]
    assert sorted(client.search("size>0")) == sorted(paths)


def test_master_restart_racing_migration_finish():
    """The *Master* crashes after the route flip but before the deferred
    finish resolves: meta-WAL replay rebuilds both the flipped route and
    the finish intent, and the restarted Master's heartbeat round
    completes the protocol it left mid-flight."""
    service, client = build()
    paths = index_files(service, client, 10, pid=4)
    service.commit_all()
    master = service.master
    partition = next(p for p in master.partitions.partitions()
                     if p.node and service.index_nodes[p.node]
                     .replicas.get(p.partition_id)
                     and service.index_nodes[p.node]
                     .replicas[p.partition_id].file_count > 0)
    source, acg_id = partition.node, partition.partition_id
    target = next(n for n in master.index_nodes if n != source)

    injector = FaultInjector(seed=0)
    injector.arm_method_fault(source, "finish_migration")
    service.rpc.faults = injector
    master.migrate_partition(acg_id, target)
    assert master.migration_log[-1].outcome == "finish_deferred"
    assert (source, acg_id) in master._pending_finishes
    epoch_flip = master.partitions.epoch
    before = master._build_meta_state().snapshot()

    # The Master process dies with the finish still pending.  Replay
    # rebuilds byte-identical durable state at the same epoch — the
    # intent is durable, so the restart cannot strand dual ownership.
    service.crash_master()
    service.restart_master()
    assert master.acting
    assert master._build_meta_state().snapshot() == before
    assert master.partitions.epoch == epoch_flip
    assert (source, acg_id) in master._pending_finishes

    # The restarted Master's debris retry drives the finish home.
    master.poll_heartbeats()
    assert (source, acg_id) not in master._pending_finishes
    src_node = service.index_nodes[source]
    assert acg_id not in src_node.handoff_intents
    assert acg_id not in src_node.replicas
    for path in paths:
        assert hosts_of(service, service.vfs.stat(path).ino) == [target]
    assert sorted(client.search("size>0")) == sorted(paths)
