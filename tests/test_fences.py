"""The RPC table, as tests: every RPC an Index Node or a Master serves
has a row in ``repro.cluster.rpcs``, and for every (RPC, stamp) row a
stale stamp earns that row's NACK and leaves no state behind."""

import re
import sys
from pathlib import Path

import pytest

from repro.cluster import PropellerService
from repro.cluster.index_node import IndexNode
from repro.cluster.messages import IndexUpdate, UpdateBatch
from repro.cluster.rpcs import INDEX_NODE, MASTER
from repro.core.partitioner import PartitioningPolicy
from repro.errors import ClusterError
from repro.indexstructures import IndexKind
from repro.query.parser import parse_query
from repro.query.planner import IndexSpec
from repro.sim.clock import SimClock
from repro.sim.machine import Machine

TERM = 7                    # the newest master term the node has seen
EPOCH = 5                   # the routing epoch the split stamped
PRE_SPLIT = EPOCH - 1
REPL_EPOCH = 3              # the replication generation the node knows
OWNED, SPLIT, HANDED_OFF, FOLLOWED = 1, 2, 3, 4
PRED = parse_query("size>=0")


def batch(acg_id, epoch, file_id=99):
    update = IndexUpdate.upsert(file_id, {"size": 1}, path=f"/d/f{file_id}")
    return UpdateBatch(acg_id, (update,), epoch)


@pytest.fixture
def node():
    """One node holding each partition state a stale stamp can meet: a
    primary (OWNED, repl epoch 3), a partition split at EPOCH with an
    update still pending (SPLIT), one handed off to a migration target
    (HANDED_OFF), and a follower copy at repl epoch 3 (FOLLOWED).
    Master RPCs have seen term 7."""
    node = IndexNode("in1", Machine(SimClock()))
    call = node.endpoint.dispatch
    call("heartbeat", term=TERM)
    call("create_index", IndexSpec("by_size", IndexKind.BTREE, ("size",)))
    for acg_id in (OWNED, SPLIT, HANDED_OFF):
        call("own_partition", acg_id, 1)
        files = range(10 * acg_id, 10 * acg_id + 3)
        call("index_update", [batch(acg_id, 1, f) for f in files])
    node.cache.commit_all()
    segment = call("extract_partition", SPLIT, [20], EPOCH)
    call("index_update", [batch(SPLIT, EPOCH, 21)])          # pending
    call("transfer_out", HANDED_OFF, "in2")
    call("set_followers", OWNED, (), REPL_EPOCH)
    call("install_follower", FOLLOWED, "in2", REPL_EPOCH, 0, segment)
    return node


def state(node):
    """What a refused request must leave exactly as it found it."""
    return (
        {a: (r.incarnation, r.applied, sorted(r.store.file_ids()),
             sorted(r.graph.to_records()))
         for a, r in node.replicas.items()},
        {a: (f.primary, f.repl_epoch, f.applied_seq,
             sorted(f.replica.store.file_ids()))
         for a, f in node.followers.items()},
        {a: (s.repl_epoch, s.followers, dict(s.acked), s.log.last_seq)
         for a, s in node.repl.items()},
        len(node.wal),
        {a: node.cache.pending_ops(a) for a in node.cache.pending_acgs()},
        dict(node.handoff_intents), dict(node.reshape_epochs),
        node.master_term_seen, node.route_epoch_seen,
    )


def raised(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except ClusterError as exc:
        return exc
    return "accepted"


def named(reply, field, acg_ids):
    return [field if a in getattr(reply, field) else reply
            for a in acg_ids]


# For each per-partition (RPC, stamp) row: a request whose stamp is
# stale — routed by a pre-split table or to a partition handed off,
# streamed by a deposed primary, skipping on an old watermark — and
# what each stale partition in it earned.
STALE = {
    ("index_update", "route"): lambda call: [
        o.error for o in call("index_update", [batch(SPLIT, PRE_SPLIT),
                                               batch(HANDED_OFF, EPOCH)])],
    ("search", "route"): lambda call: named(      # a leg, and a skip
        call("search", [HANDED_OFF], PRED, epoch=PRE_SPLIT,
             pruned={SPLIT: ("in1", 1, 0)}),
        "not_owned", [SPLIT, HANDED_OFF]),
    ("search", "watermark"): lambda call: [
        "searched" if [r.acg_id for r in reply.results] == [OWNED]
        and not reply.pruned_ok else reply
        for reply in [call("search", [], PRED, epoch=EPOCH,
                           pruned={OWNED: ("in1", 1, 0)})]],
    ("explain", "route"): lambda call: [
        "omitted" if call("explain", [HANDED_OFF], PRED) == [] else None],
    ("locate_file", "route"): lambda call: [
        "omitted" if call("locate_file", 30) is None else None],
    ("flush_acg", "route"): lambda call: [
        "dropped" if call("flush_acg", [(HANDED_OFF, ((30, 31, 1),))])
        is None else None],
    ("replicate_apply", "repl"): lambda call: [
        o.error for o in call("replicate_apply", [
            (FOLLOWED, REPL_EPOCH - 1, ((1, batch(0, 0).updates),))])],
    ("install_follower", "repl"): lambda call: [
        raised(call, "install_follower", acg_id, "in2", repl_epoch, 0, b"")
        for acg_id, repl_epoch in ((FOLLOWED, REPL_EPOCH - 1),
                                   (OWNED, REPL_EPOCH))],   # own claim
    ("set_followers", "repl"): lambda call: [
        "ignored" if call("set_followers", OWNED, ("in2",), REPL_EPOCH - 1,
                          term=TERM) is None else None],
}

ROWS = [(rpc, stamp) for rpc, fence in INDEX_NODE.items()
        for stamp in fence.stamps]


@pytest.mark.parametrize("rpc,stamp", ROWS, ids=[f"{r}-{s}" for r, s in ROWS])
def test_a_stale_stamp_earns_its_nack_and_changes_nothing(node, rpc, stamp):
    call = node.endpoint.dispatch
    before = state(node)
    if stamp == "term":
        # Checked before dispatch: the arguments never reach the handler.
        earned = [raised(call, rpc, term=TERM - 1)]
    else:
        earned = STALE[rpc, stamp](call)
    nack = INDEX_NODE[rpc].stamps[stamp]
    assert earned
    for answer in earned:
        if isinstance(nack, type):
            assert isinstance(answer, nack), (rpc, stamp, answer)
        else:
            assert answer == nack, (rpc, stamp, answer)
    assert state(node) == before


def test_every_per_partition_row_has_a_stale_request():
    assert set(STALE) == {(rpc, stamp) for rpc, stamp in ROWS
                          if stamp != "term"}


def test_every_registered_rpc_has_a_row(node, standby):
    """An RPC registered on an endpoint is served; one with no row in
    the table would skip admission.  Stampless RPCs have an explicit
    empty row."""
    assert set(node.endpoint._handlers) == set(INDEX_NODE)
    assert set(standby.endpoint._handlers) == set(MASTER)
    assert INDEX_NODE["search_replica"].stamps == {}
    assert {s for f in INDEX_NODE.values() for s in f.stamps} == {
        "term", "route", "repl", "watermark"}
    assert {s for f in MASTER.values() for s in f.stamps} == {
        "acting", "meta_term", "meta_seq"}


def test_the_documented_tables_list_the_code_tables_rpcs():
    """docs/fault-tolerance.md "Fences" has one table per server; the
    first column of each names exactly that server's rows."""
    doc = (Path(__file__).resolve().parents[1] / "docs"
           / "fault-tolerance.md").read_text()
    section = doc.split("## Fences\n", 1)[1].split("\n## ", 1)[0]
    tables = re.findall(r"(?:^\|.*\n)+", section, flags=re.M)
    documented = [
        [name for line in table.splitlines()[2:]
         for name in re.findall(r"`(\w+)`", line.split("|")[1])]
        for table in tables]
    assert [sorted(names) for names in documented] == [
        sorted(INDEX_NODE), sorted(MASTER)]


def test_fresh_stamps_pass(node):
    """The same requests stamped current go through: the fences refuse
    staleness, not the partitions."""
    call = node.endpoint.dispatch
    (outcome,) = call("index_update", [batch(SPLIT, EPOCH, 22)])
    assert outcome.ok
    reply = call("search", [SPLIT], PRED, epoch=EPOCH)
    assert reply.not_owned == () and 22 in reply.results[0].file_ids
    assert call("heartbeat", term=TERM).node == "in1"


# -- the Master's rows ----------------------------------------------------------


@pytest.fixture
def standby():
    """The warm standby of a two-node deployment, its tail bootstrapped:
    it holds the acting Master's log (term 1) but is not acting."""
    service = PropellerService(num_index_nodes=2, standby_master=True)
    standby = service.masters[1]
    assert not standby.acting and standby.term == 0
    return standby


def master_state(master):
    """What a refused Master RPC must leave exactly as it found it."""
    wal = master.meta_wal
    return (master.state.snapshot(), master.term, master.acting,
            master._tail_seq, master._push_ok, wal.seq, wal.base,
            wal.highest_term, tuple(wal.entries), wal.snapshot, len(wal.log))


def deposed(standby):
    """The same Master after it acted and was deposed: a promotion, then
    an Index Node's fence reporting a newer term."""
    standby.promote()
    standby._deposed(standby.term + 1, "heartbeat")
    assert not standby.acting
    return standby


ACTING = [rpc for rpc, fence in MASTER.items() if "acting" in fence.stamps]


@pytest.mark.parametrize("role", [lambda m: m, deposed],
                         ids=["standby", "deposed"])
@pytest.mark.parametrize("rpc", ACTING)
def test_only_the_acting_master_answers(standby, role, rpc):
    master = role(standby)
    before = master_state(master)
    # Checked before dispatch: the arguments never reach the handler.
    earned = raised(master.endpoint.dispatch, rpc)
    assert isinstance(earned, MASTER[rpc].stamps["acting"]), (rpc, earned)
    assert master_state(master) == before


def streamed(standby, seq_ahead=1, term_behind=0):
    """One meta-log record pushed to ``standby``: a new member, at the
    log's term less ``term_behind``, ``seq_ahead`` past its watermark."""
    return standby.endpoint.dispatch(
        "meta_apply", standby._tail_seq + seq_ahead,
        (standby.meta_wal.highest_term - term_behind, "member", "in9"))


# For each of the Master's per-record (RPC, stamp) rows: a push whose
# stamp is stale, and what it earned.
MASTER_STALE = {
    ("meta_apply", "meta_term"): lambda standby: raised(
        streamed, standby, term_behind=1),
    ("meta_apply", "meta_seq"): lambda standby: (
        "ignored" if streamed(standby, seq_ahead=2) is None else None),
}


@pytest.mark.parametrize("rpc,stamp", list(MASTER_STALE),
                         ids=[f"{r}-{s}" for r, s in MASTER_STALE])
def test_a_stale_record_earns_its_nack_and_changes_nothing(standby, rpc,
                                                           stamp):
    before = master_state(standby)
    earned = MASTER_STALE[rpc, stamp](standby)
    nack = MASTER[rpc].stamps[stamp]
    if isinstance(nack, type):
        assert isinstance(earned, nack), (rpc, stamp, earned)
    else:
        assert earned == nack, (rpc, stamp, earned)
    assert master_state(standby) == before
    streamed(standby)                   # the fresh record applies
    assert "in9" in standby.index_nodes


def test_every_per_record_master_row_has_a_stale_request():
    assert set(MASTER_STALE) == {(rpc, stamp) for rpc, fence in MASTER.items()
                                 for stamp in fence.stamps
                                 if stamp != "acting"}


def test_every_command_the_master_sends_an_index_node_is_term_fenced(
        monkeypatch):
    """A deposed Master's command never applies only because every RPC
    it sends an Index Node carries its term and has a ``term`` row.
    Drive split, migrate, merge and an RF=2 failover through a spy on
    the network and check each Master-sent call."""
    service = PropellerService(
        num_index_nodes=3, replication_factor=2,
        policy=PartitioningPolicy(split_threshold=20, cluster_target=10))
    client = service.make_client()
    sent = []
    call = service.rpc.call

    def spy(target, method, *args, **kwargs):
        caller = sys._getframe(1).f_globals["__name__"]
        if caller == "repro.cluster.master" and target in service.index_nodes:
            sent.append((method, kwargs.get("term", 0)))
        return call(target, method, *args, **kwargs)
    monkeypatch.setattr(service.rpc, "call", spy)

    client.create_index("by_size", IndexKind.BTREE, ["size"])
    service.vfs.mkdir("/d")
    for i in range(90):
        pid = 1 + i // 30
        service.vfs.write_file(f"/d/f{i:03d}", 100 + i, pid=pid)
        client.index_path(f"/d/f{i:03d}", pid=pid)
    client.flush_updates()
    service.advance(10.0)                       # heartbeats, splits
    service.sync_replication()
    master = service.master
    master.maybe_split()
    held = [p for p in master.partitions.partitions()
            if service.index_nodes[p.node].replicas[p.partition_id].file_count]
    keep, absorb = held[0], held[1]
    target = next(n for n in master.index_nodes if n != keep.node)
    assert master.migrate_partition(keep.partition_id, target)
    assert master.merge_partitions(keep.partition_id, absorb.partition_id)
    service.sync_replication()
    victim = keep.node
    service.fail_node(victim)
    assert service.failover(victim)
    service.advance(10.0)

    methods = {method for method, _term in sent}
    assert {"heartbeat", "compute_split", "extract_partition",
            "install_partition", "transfer_out", "finish_migration",
            "drop_partition", "set_followers", "promote_replica"} <= methods
    assert all(term >= 1 for _method, term in sent)
    assert methods <= {rpc for rpc, fence in INDEX_NODE.items()
                       if "term" in fence.stamps}
