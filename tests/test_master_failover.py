"""Master failover end to end: warm standby promotion on lease expiry,
term fencing of the deposed Master, client re-homing, acked updates
surviving a Master restart via meta-WAL replay, and the master-fault
chaos mode's determinism."""

import pytest

from repro.chaos import ChaosRunner, build_schedule
from repro.cluster import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.errors import StaleMasterTerm
from repro.indexstructures import IndexKind


def build(nodes=3, rf=2):
    service = PropellerService(
        num_index_nodes=nodes, replication_factor=rf, standby_master=True,
        policy=PartitioningPolicy(split_threshold=10**9, cluster_target=8))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    return service, client


def index_files(service, client, n, pid=7):
    if not service.vfs.exists("/d"):
        service.vfs.mkdir("/d", parents=True)
    paths = []
    for i in range(n):
        path = f"/d/f{pid}_{i:03d}"
        service.vfs.write_file(path, 100 + i, pid=100 + i)
        client.index_path(path, pid=100 + i)
        paths.append(path)
    client.flush_updates()
    return paths


# -- standby promotion -----------------------------------------------------------


def test_standby_promotes_on_lease_expiry():
    service, client = build()
    paths = index_files(service, client, 20)
    service.commit_all()
    assert service.master.endpoint.name == "master"
    epoch_before = service.master.partitions.epoch

    service.crash_master()
    # Three missed 2s lease ticks expire the lease; promotion bumps the
    # term and the deployment re-points at the new acting Master.
    service.advance(12.0)
    assert service.master.endpoint.name == "master2"
    assert service.master.acting
    assert service.master.term == 2
    # Epochs continue monotonically: no client refresh storm.
    assert service.master.partitions.epoch >= epoch_before
    assert service.journal.count("master.promote") == 1


def test_client_rehomes_to_promoted_master():
    service, client = build()
    paths = index_files(service, client, 12)
    service.commit_all()
    answer_before = sorted(client.search("size>0"))
    assert answer_before == sorted(paths)

    service.crash_master()
    service.advance(12.0)
    # The next Master-bound call fails over to the standby candidate.
    answer_after = sorted(client.search("size>0"))
    assert answer_after == answer_before
    assert client.master_rehomes >= 1


def test_acked_updates_survive_promotion():
    """Everything the cluster acknowledged before the Master crash is
    still indexed and searchable under the promoted Master."""
    service, client = build()
    paths = index_files(service, client, 25)
    service.commit_all()
    service.crash_master()
    service.advance(12.0)
    assert sorted(client.search("size>0")) == sorted(paths)
    # And the promoted Master accepts new work.
    more = index_files(service, client, 5, pid=9)
    assert sorted(client.search("size>0")) == sorted(paths + more)


# -- fencing the deposed Master --------------------------------------------------


def test_restarted_ex_master_is_fenced_and_rejoins_as_standby():
    service, client = build()
    index_files(service, client, 10)
    service.commit_all()
    service.crash_master()
    service.advance(12.0)
    assert service.master.endpoint.name == "master2"

    # The ex-Master replays its own meta-WAL, which still says it owns
    # term 1 — it comes back *believing* it is acting.
    service.restart_master("master")
    old = next(m for m in service.masters if m.endpoint.name == "master")
    assert old.acting and old.term == 1

    # The next heartbeat round fences its stale term: Index Nodes raise
    # StaleMasterTerm, it self-deposes, and exactly one Master acts.
    service.advance(6.0)
    assert not old.acting
    assert sum(n.master_fences for n in service.index_nodes.values()) >= 1
    assert service.journal.count("master.fence") >= 1
    assert service.journal.count("master.depose") >= 1
    acting = [m for m in service.masters if m.endpoint.up and m.acting]
    assert [m.endpoint.name for m in acting] == ["master2"]

    # The deposed Master re-tails the new acting Master's meta-log.
    service.advance(6.0)
    assert service.master_status()["standby_lag"] == 0


def test_node_fences_stale_term_rpc_directly():
    service, client = build()
    index_files(service, client, 6)
    node = next(iter(service.index_nodes.values()))
    # Teach the node a newer term, then replay an older one.
    node._fence_term(3, "heartbeat")
    with pytest.raises(StaleMasterTerm) as exc:
        node._fence_term(2, "heartbeat")
    assert exc.value.term == 3
    assert node.master_fences == 1
    # Term 0 (unstamped, e.g. client-originated paths) always passes.
    node._fence_term(0, "search")


# -- the standby keeps its state with the same apply -----------------------------


def test_standby_state_tracks_acting_through_every_reshape():
    """Split, merge, migration and an Index Node failover all change the
    Master's durable state only by meta-log records; the standby folds
    the same records through the same ``apply``, so after each step its
    state is the acting Master's, record for record."""
    service = PropellerService(
        num_index_nodes=4, replication_factor=2, standby_master=True,
        policy=PartitioningPolicy(split_threshold=30, cluster_target=8))
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    master = service.master
    standby = next(m for m in service.masters if m is not master)
    service.advance(2.0)                # first pull arms the push stream

    def in_step():
        assert standby._tail_seq == master.meta_wal.seq
        assert standby.state.snapshot() == master.state.snapshot()

    service.vfs.mkdir("/d")
    for i in range(40):                 # one producer: one growing ACG
        service.vfs.write_file(f"/d/c{i:03d}", 100 + i, pid=3)
        client.index_path(f"/d/c{i:03d}", pid=3)
    index_files(service, client, 6)
    service.commit_all()
    master.poll_heartbeats()            # sizes reported
    master.poll_heartbeats()            # then split
    assert master.splits
    in_step()

    small = sorted((p for p in master.partitions.partitions() if p.node),
                   key=lambda p: p.partition_id)
    assert master.merge_partitions(small[-1].partition_id,
                                   small[-2].partition_id) >= 0
    in_step()

    partition = master.partitions.get(master.splits[0].new_acg_id)
    target = next(n for n in master.index_nodes if n != partition.node)
    master.migrate_partition(partition.partition_id, target)
    in_step()

    service.commit_all()
    service._checkpoint_all()
    victim = master.partitions.get(master.splits[0].acg_id).node
    service.fail_node(victim)
    assert service.failover(victim) >= 1
    in_step()
    assert victim not in standby.index_nodes

    # Promotion installs nothing: the standby's own state is the map.
    before = master.partitions.to_records()
    service.crash_master()
    service.advance(12.0)
    assert service.master is standby and standby.acting
    assert standby.partitions.to_records() == before
    got, want = client.search("size>0"), sorted(
        p for p, _ in service.vfs.namespace.files("/d"))
    assert got == want, sorted(set(got) ^ set(want))


# -- meta-WAL restart (no promotion) ---------------------------------------------


def test_master_restart_replays_identical_state():
    """A crash-restart with no standby promotion in between replays the
    meta-WAL into byte-identical durable state at the same term."""
    service, client = build()
    paths = index_files(service, client, 18)
    service.commit_all()
    master = service.master
    before = master.state.snapshot()
    term_before = master.term

    service.crash_master()
    service.restart_master()          # immediate: lease never expires
    assert master.acting and master.term == term_before
    assert master.state.snapshot() == before
    assert service.journal.count("master.restart") == 1
    assert sorted(client.search("size>0")) == sorted(paths)


def test_master_restart_survives_torn_meta_tail():
    service, client = build()
    index_files(service, client, 10)
    master = service.master
    service.crash_master()
    master.meta_wal.simulate_torn_tail(4)
    service.restart_master()
    assert master.meta_wal.replay_dropped_total == 1
    assert master.acting
    # The cluster still serves after the torn-tail replay.
    assert len(client.search("size>0")) == 10


def test_checkpoint_folds_meta_wal():
    service, client = build()
    index_files(service, client, 8)
    master = service.master
    assert master.meta_wal.checkpoints_taken == 0
    service._checkpoint_all()
    assert master.meta_wal.checkpoints_taken == 1
    assert master.meta_wal.base == master.meta_wal.seq
    # Restart after the checkpoint: snapshot-only replay.
    service.crash_master()
    service.restart_master()
    assert master.acting
    assert len(client.search("size>0")) == 8


# -- status surface --------------------------------------------------------------


def test_master_status_reports_roles_and_lag():
    service, client = build()
    index_files(service, client, 6)
    service.advance(4.0)  # a couple of standby ticks
    status = service.master_status()
    assert status["acting"] == "master"
    assert status["term"] == 1
    assert status["roles"]["master"]["role"] == "acting"
    assert status["roles"]["master2"]["role"] == "standby"
    assert status["standby_lag"] == 0
    assert status["fences"] == 0


# -- chaos: master faults --------------------------------------------------------


def test_schedule_without_master_faults_is_unchanged():
    """The flag-off program must stay byte-identical to the historical
    generator output (same seed, same draws, same steps)."""
    baseline = build_schedule(11, 40, 3)
    explicit = build_schedule(11, 40, 3, master_faults=False)
    assert baseline == explicit
    assert all(s.op not in ("master_crash", "master_isolation")
               for s in baseline)


def test_schedule_with_master_faults_contains_new_ops():
    program = build_schedule(0, 60, 3, master_faults=True)
    ops = {s.op for s in program}
    assert "master_crash" in ops and "master_isolation" in ops


def test_master_fault_chaos_is_deterministic_and_clean():
    runs = []
    for _ in range(2):
        runner = ChaosRunner(0, steps=30, nodes=3, rf=2, master_faults=True)
        runner.run()
        runs.append(runner.report_json())
    assert runs[0] == runs[1]
    import json

    report = json.loads(runs[0])
    assert report["violations"] == []
    assert report["master_faults"] is True
    # The program actually failed the control plane.
    assert report["master"]["promotions"] >= 1
