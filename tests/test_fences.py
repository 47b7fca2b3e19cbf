"""The fence table, as tests: every RPC an Index Node serves has a row in
``FENCES``, and for every (RPC, stamp) row a stale stamp earns that
row's NACK and leaves no state behind."""

import pytest

from repro.cluster.index_node import FENCES, IndexNode
from repro.cluster.messages import IndexUpdate, UpdateBatch
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

ROWS = [(rpc, stamp) for rpc, fence in FENCES.items() for stamp in fence.stamps]


@pytest.mark.parametrize("rpc,stamp", ROWS, ids=[f"{r}-{s}" for r, s in ROWS])
def test_a_stale_stamp_earns_its_nack_and_changes_nothing(node, rpc, stamp):
    call = node.endpoint.dispatch
    before = state(node)
    if stamp == "term":
        # Checked before dispatch: the arguments never reach the handler.
        earned = [raised(call, rpc, term=TERM - 1)]
    else:
        earned = STALE[rpc, stamp](call)
    nack = FENCES[rpc].stamps[stamp]
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


def test_every_registered_rpc_has_a_row(node):
    """An RPC registered on the endpoint is served; one with no row in
    the table would skip admission.  Stampless RPCs have an explicit
    empty row."""
    assert set(node.endpoint._handlers) == set(FENCES)
    assert FENCES["search_replica"].stamps == {}
    assert {s for f in FENCES.values() for s in f.stamps} == {
        "term", "route", "repl", "watermark"}


def test_fresh_stamps_pass(node):
    """The same requests stamped current go through: the fences refuse
    staleness, not the partitions."""
    call = node.endpoint.dispatch
    (outcome,) = call("index_update", [batch(SPLIT, EPOCH, 22)])
    assert outcome.ok
    reply = call("search", [SPLIT], PRED, epoch=EPOCH)
    assert reply.not_owned == () and 22 in reply.results[0].file_ids
    assert call("heartbeat", term=TERM).node == "in1"
