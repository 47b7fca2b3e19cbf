"""Master Node.

The central index-metadata and coordination server (Section IV): it holds
the ACG locations — served to clients as a versioned route table — and
the file→ACG mapping of every file a split or merge has moved, allocates
new ACGs on the least-loaded Index Node, tracks heartbeats, periodically
checkpoints its metadata to shared storage, and coordinates background
splits and migrations.  It places no file (clients do, from the table)
and never serves file I/O or index contents itself, which is why the
paper argues one Master scales to hundreds of Index Nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.messages import (Heartbeat, RouteEntry, RouteTable,
                                    RouteTableEntry, SummaryTable)
from repro.cluster.meta_wal import MetaState, MetaWal
from repro.cluster.rpcs import MASTER, serve
from repro.core.partition_manager import PartitionManager
from repro.core.partitioner import PartitioningPolicy
from repro.errors import (ClusterError, FileSystemError, NotActingMaster,
                          SegmentCorruption, StaleMasterTerm,
                          UnknownIndexNode)
from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER
from repro.query.planner import IndexSpec
from repro.replication.replica_set import ReplicaSetManager
from repro.sim.machine import Machine
from repro.sim.rpc import RpcEndpoint, RpcNetwork

_ROUTE_LOOKUP_OPS = 1_500   # one hash probe into the file→ACG map
_SUMMARY_COPY_OPS = 300     # hand one summary snapshot to a client
_CHECKPOINT_BYTES_PER_FILE = 24
# How many (epoch, partition) changes the Master retains for the route
# delta protocol; clients further behind get a full snapshot instead.
_ROUTE_LOG_CAP = 512
# An Index Node silent for longer than three heartbeat periods is failed.
HEARTBEAT_TIMEOUT_S = 15.0

# Standby lease protocol: the standby pings (and tails) the acting
# Master every tick; LEASE_MISSES_TO_PROMOTE consecutive failed pings
# expire the lease and promote.  Detection therefore lands within
# roughly tick * misses (plus RPC retry time) — comfortably inside the
# documented MASTER_LEASE_TIMEOUT_S bound benchmarks guard against.
STANDBY_TICK_S = 2.0
LEASE_MISSES_TO_PROMOTE = 3
MASTER_LEASE_TIMEOUT_S = 10.0


@dataclass
class SplitDecision:
    """Record of one coordinated split (kept for observability/tests)."""

    acg_id: int
    new_acg_id: int
    source_node: str
    target_node: str
    moved_files: int


@dataclass
class MigrationEvent:
    """Timeline record of one online migration.

    ``t_start`` is when the Master asked the source to start transferring
    out; ``t_flip`` is when routing flipped to the target (the epoch
    bump); ``outcome`` tracks the protocol's end state — ``done``,
    ``aborted`` (rolled back before the flip), or ``finish_deferred``
    (flipped, but the source could not be told to drop its copy yet; a
    later heartbeat round retries and flips this to ``done``).
    """

    acg_id: int
    source: str
    target: str
    t_start: float
    t_flip: float = 0.0
    epoch: int = 0
    moved_files: int = 0
    outcome: str = "pending"


@dataclass
class FailoverEvent:
    """Record of one failover: what moved, what was lost, and when.

    The chaos invariant checker uses these to tell *expected* data loss
    (updates acknowledged after the victim's last checkpoint die with it)
    apart from genuine bugs: a file is excused only if its partition
    appears here and its ack time postdates the victim's checkpoint.

    ``outcome`` distinguishes how the round ended: ``"adopted"`` (the
    historical checkpoint-replay path did the work), ``"promoted"``
    (replica promotion placed every partition that moved), or
    ``"deferred"`` — nothing could be placed this round because every
    candidate adopter/replica was unreachable or itself lagging, and the
    next heartbeat poll will retry.  ``promoted`` names the partitions
    that were promoted rather than adopted, ``watermarks`` records the
    chosen (or, for deferred rounds, best-known) replica's applied
    sequence per partition, and ``victim_heartbeat_t`` is when the dead
    node last heartbeated — the promotion excuse-window anchor.
    """

    t: float
    node: str
    moved: Tuple[int, ...]
    lost: Tuple[int, ...]
    auto: bool = False
    outcome: str = "adopted"
    promoted: Tuple[int, ...] = ()
    deferred: Tuple[int, ...] = ()
    watermarks: Tuple[Tuple[int, int], ...] = ()
    victim_heartbeat_t: float = 0.0


class MasterNode:
    """Propeller's metadata and coordination server."""

    def __init__(self, machine: Machine, rpc: RpcNetwork,
                 policy: PartitioningPolicy = PartitioningPolicy(),
                 registry: Optional[MetricsRegistry] = None,
                 auto_failover: bool = False,
                 replication_factor: int = 1,
                 journal: Optional[EventJournal] = None,
                 endpoint_name: str = "master",
                 peer: Optional[str] = None,
                 acting: bool = True) -> None:
        self.machine = machine
        self.rpc = rpc
        self.policy = policy
        # Master-term state: every master-originated mutating RPC carries
        # the term, Index Nodes fence anything below the newest term they
        # have seen, and the meta-WAL fences below its highest recorded
        # term — the two authorities that make promotion split-brain
        # safe.  A standby starts at term 0 / not acting and learns
        # everything (including the term) by tailing its peer's meta-log.
        self.acting = acting
        self.term = 1 if acting else 0
        self.peer = peer
        # The durable state and the log it is folded from.  ``_apply``
        # is the only writer: partitions, membership, index specs,
        # replica-set epochs and the migration/sync intents all change
        # by appending a record and applying it — on the acting Master,
        # on the standby tailing it, and on crash replay alike.
        self.meta_wal = MetaWal()
        self.state = MetaState()
        # Standby tail watermark into the peer's meta-log (None →
        # bootstrap from a snapshot image).
        self._tail_seq: Optional[int] = None
        self._missed_leases = 0
        # Push-stream arming: the acting Master pushes each meta record
        # to its standby synchronously (meta_apply), but only once the
        # standby has bootstrapped via a master_lease pull — serving
        # that pull arms the stream, any push failure disarms it until
        # the next successful pull.  Starts disarmed: the peer endpoint
        # may not even exist yet at construction time.
        self._push_ok = False
        # Deployment hook: called with ``self`` right after a promotion
        # so the service can re-point routing/health at the new acting
        # Master.
        self._on_promote: Optional[Any] = None
        # A Master always has a *real* journal (never the null object):
        # its failover and migration records are read back as journal
        # payloads, so emission must retain events even on a standalone
        # Master.  Deployments pass the shared journal in.
        self.journal = journal if journal is not None \
            else EventJournal(machine.clock)
        # RF > 1 gives every partition follower replicas: heartbeats
        # carry watermark reports, failover tries promotion first, and
        # route tables advertise the followers for hedged reads.  RF=1
        # (the default) leaves every replication path dormant.
        self.replication_factor = replication_factor
        # When on, the heartbeat poll itself fails silent nodes over —
        # off by default so explicit-failover deployments keep control.
        self.auto_failover = auto_failover
        # Coordination events (failovers, splits, checkpoints) count into
        # the deployment-wide registry; a standalone Master gets its own.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = NULL_TRACER
        from repro.sim.disk import DiskDevice

        self._shared_device = DiskDevice(machine.clock, machine.disk.model)
        self.splits: List[SplitDecision] = []
        self._reset_soft_state()
        self.checkpoints_written = 0
        self.endpoint = RpcEndpoint(endpoint_name)
        serve(self.endpoint, self, MASTER)
        rpc.add_endpoint(self.endpoint)
        if acting:
            # The term record is always the first durable fact about a
            # log generation: replay learns who owns the term before any
            # mutation at that term applies.
            self._meta("term", self.term, endpoint_name)

    # -- master term, meta-WAL, lease, and standby ---------------------------------
    #
    # The control plane's crash-tolerance machinery.  Every durable
    # mutation *is* a term-prefixed meta-WAL record: appended, then
    # applied by the one interpreter (``MetaState.apply``); every
    # master-originated mutating RPC is stamped with the term so Index
    # Nodes can fence a deposed Master; and a warm standby tails the log
    # via the master_lease RPC, applying the same records, and promotes
    # with a term bump when the lease expires.

    @property
    def partitions(self) -> PartitionManager:
        """Partition map, file map and routing epoch (read-only here:
        records change them)."""
        return self.state.partitions

    @property
    def index_nodes(self) -> List[str]:
        """Registered Index Nodes, in registration order."""
        return self.state.members

    @property
    def index_specs(self) -> Dict[str, IndexSpec]:
        """Globally-named indices, by name."""
        return self.state.specs

    @property
    def replica_sets(self) -> Optional[ReplicaSetManager]:
        """Replica-set epochs, followers and watermarks (None at RF=1)."""
        return self.state.replica_sets if self.replication_factor > 1 else None

    def _apply(self, term: int, record: Tuple[Any, ...]) -> None:
        """Append one ``(kind, *payload)`` record at ``term``, then apply
        it: the only way the durable state changes."""
        self.meta_wal.append(term, record)
        self.state.apply((term,) + tuple(record))

    def _meta(self, *record: Any) -> None:
        """Apply one durable mutation record at the current term, then
        stream it to the warm standby (best effort — the periodic
        master_lease pull reconciles anything the push misses)."""
        self._apply(self.term, record)
        if self.acting and self.peer is not None and self._push_ok:
            self._push_meta(record)

    def _reset_soft_state(self) -> None:
        """Forget what the meta-log does not hold: it died with the
        process (or a standby never learned it) and the next heartbeat
        round re-teaches it.  Clients behind the emptied route-delta log
        get one full route table."""
        self.heartbeats: Dict[str, Heartbeat] = {}
        # Routing-epoch change log: (epoch, acg_id) per bump, so clients
        # at epoch E can be answered with just the partitions that moved
        # since E instead of a full snapshot.
        self._route_log: List[Tuple[int, int]] = []
        # Latest per-ACG file counts as reported by Index Node heartbeats.
        # Clients place files without telling the Master (that is the
        # whole point of the route cache), so the Master's own file map
        # under-counts; every load/size decision uses the max of both.
        self._reported_sizes: Dict[int, int] = {}
        # Partition-summary cache, fed by heartbeat piggybacks: acg_id →
        # latest SummarySnapshot from the partition's current owner.
        # ``_summary_version`` bumps whenever any stored snapshot changes
        # so clients can poll cheaply (fresh marker, no payload).
        self._summaries: Dict[int, Any] = {}
        self._summary_version = 0
        # The live timeline event behind each durable finish intent
        # (``state.finishes``), so a retried finish can mark it done.
        self._finish_events: Dict[Tuple[str, int], MigrationEvent] = {}

    def _push_meta(self, record: Tuple[Any, ...]) -> None:
        """Synchronously push one apply record to the standby.

        This is what keeps the standby *exactly* current between its 2s
        pull ticks: in-between a crash can only lose mutations the
        acting Master never acked, so a promotion starts from the full
        tailed state and routing epochs continue monotonically.  The
        push is also a fencing channel — a standby that promoted while
        we were partitioned away answers :class:`StaleMasterTerm`, and
        we self-depose on the spot instead of waiting to be fenced by
        an Index Node.  Delivery failures just disarm the stream; the
        standby's next successful pull re-arms it."""
        from repro.errors import NodeDown, RpcTimeout

        try:
            self.rpc.call(self.peer, "meta_apply", self.meta_wal.seq,
                          (self.term,) + tuple(record))
        except StaleMasterTerm as exc:
            self._deposed(exc.term, "meta_apply")
        except (NodeDown, RpcTimeout):
            self._push_ok = False

    def meta_apply(self, seq: int, entry: Tuple[Any, ...]) -> None:
        """Standby-side receiver for one streamed apply record.

        ``entry`` is a term-prefixed meta-WAL record; ``seq`` its
        sequence number in the pusher's log.  Exactly-once is enforced
        by the watermark: only ``_tail_seq + 1`` applies — duplicates
        and gaps are ignored (the periodic pull reconciles).  Fencing
        runs both ways: a push below our known term is rejected with
        :class:`StaleMasterTerm` (the pusher was deposed while
        partitioned), and a push *above* the term of a receiver that
        believes it is acting deposes the receiver — it missed its own
        deposal while down."""
        term = entry[0]
        known = max(self.term, self.meta_wal.highest_term)
        if self.acting and term > known:
            self._deposed(term, "meta_apply")
            return
        if term < known or self.acting:
            raise StaleMasterTerm(
                f"{self.endpoint.name} has already seen term {known}",
                term=known)
        if self._tail_seq is None or seq != self._tail_seq + 1:
            return
        self._apply(term, tuple(entry[1:]))
        self._tail_seq = seq

    def _require_acting(self) -> None:
        """The ``acting`` stamp (:mod:`repro.cluster.rpcs`): only the
        acting Master may answer (a standby's state lags; serving it
        would be wrong *and* hide the outage from re-homing clients)."""
        if not self.acting:
            raise NotActingMaster(
                f"{self.endpoint.name} is not the acting master",
                acting=self.peer or "")

    def _node_call(self, node: str, method: str, *args: Any,
                   **kwargs: Any) -> Any:
        """Outbound Index Node RPC, stamped with the master term.

        An Index Node that has seen a newer term answers with
        :class:`StaleMasterTerm`: this Master was deposed while
        partitioned.  The reaction is to stop acting — immediately and
        permanently for this term — then re-raise so the interrupted
        operation unwinds like any other cluster error."""
        kwargs.setdefault("term", self.term)
        try:
            return self.rpc.call(node, method, *args, **kwargs)
        except StaleMasterTerm as exc:
            self._deposed(exc.term, method)
            raise

    def _node_call_ok(self, node: str, method: str, *args: Any) -> bool:
        """A best-effort :meth:`_node_call`: whether it landed.  A term
        fence still unwinds the operation; any other cluster error is
        the caller's to retry (or the node's next heartbeat repairs it)."""
        try:
            self._node_call(node, method, *args)
        except StaleMasterTerm:
            raise
        except ClusterError:
            return False
        return True

    def _deposed(self, newer_term: int, rpc_name: str) -> None:
        """Self-fence after an Index Node rejected our term."""
        if not self.acting:
            return
        self.acting = False
        self._missed_leases = 0
        self._tail_seq = None
        self.registry.counter("cluster.master.deposed").inc()
        self.journal.emit("master.depose", node=self.endpoint.name,
                          term=self.term, newer_term=newer_term,
                          rpc=rpc_name)

    def crash_restart(self) -> None:
        """Restart this Master in place after a process crash.

        All in-memory state dies; :meth:`MetaWal.recover` replays the
        snapshot image plus every surviving log record (a torn tail —
        the record mid-write at the crash — is dropped and counted, the
        same discipline as Index Node WAL recovery).  Epochs, terms, and
        the partition-id counter continue exactly where the log left
        them, so cached client routes stay valid and fences stay sound.
        The replayed term record decides the role: if this Master still
        owns the latest recorded term, no promotion happened while it
        was down and it resumes acting; otherwise it must rejoin as a
        standby (the deployment re-points its peer)."""
        self.state = self.meta_wal.recover()
        self.term = self.state.term
        self._reset_soft_state()
        self.acting = (self.state.term_owner == self.endpoint.name)
        self._missed_leases = 0
        self._tail_seq = None
        self._push_ok = False
        self.registry.counter("cluster.master.restarts").inc()
        self.journal.emit("master.restart", node=self.endpoint.name,
                          term=self.term, acting=self.acting,
                          route_epoch=self.partitions.epoch,
                          replay_dropped=self.meta_wal.log.replay_dropped)

    def master_lease(self, since_seq: Optional[int] = None) -> Tuple[Any, ...]:
        """The standby's combined lease ping and meta-log tail.

        Returns ``(term, seq, payload)`` where payload is
        ``("records", entries)`` — the decoded apply records past the
        caller's watermark — or ``("snapshot", image)`` when the caller
        is bootstrapping (or a checkpoint truncated past its watermark).
        Only the acting Master holds a lease to extend.  Serving a pull
        also (re)arms the push stream: once this response lands, the
        standby's watermark equals ``seq``, so every subsequent record
        chains onto it."""
        self._push_ok = True
        if since_seq is not None:
            entries = self.meta_wal.entries_since(since_seq)
            if entries is not None:
                return (self.term, self.meta_wal.seq,
                        ("records", tuple(entries)))
        return (self.term, self.meta_wal.seq,
                ("snapshot", self.state.snapshot()))

    def standby_tick(self) -> None:
        """One standby heartbeat: extend the lease and tail the log.

        ``LEASE_MISSES_TO_PROMOTE`` consecutive failures (peer down,
        timed out, or no longer acting) expire the lease and promote.
        A tick against a *stale* peer — one whose records carry a term
        below what this log has seen — counts as a miss too: the meta-WAL
        fence refuses the records."""
        if self.acting or self.peer is None:
            return
        from repro.errors import NodeDown, RpcTimeout

        try:
            term, seq, payload = self.rpc.call(self.peer, "master_lease",
                                               self._tail_seq)
            kind, body = payload
            if kind == "snapshot":
                self.meta_wal.install(body, seq, term)
                self.state = MetaState.from_snapshot(body)
            else:
                for record in body:
                    self._apply(record[0], record[1:])
        except (NodeDown, RpcTimeout, NotActingMaster, StaleMasterTerm):
            self._missed_leases += 1
            if self._missed_leases >= LEASE_MISSES_TO_PROMOTE:
                self.promote()
            return
        self._missed_leases = 0
        self._tail_seq = seq

    def promote(self) -> None:
        """Take over as acting Master with a term bump.

        The tailed state is already this Master's own (every streamed
        record went through :meth:`_apply`), so epochs continue
        monotonically — the promotion is invisible to cached client
        routes.  Promotion resets soft state, bumps the term past
        everything ever seen, and appends the new term record *first* so
        the bump is durable before any mutation at the new term.  Index
        Nodes learn the term from the next term-stamped poll; the
        deposed peer gets fenced on its next mutating RPC."""
        new_term = max(self.meta_wal.highest_term, self.state.term,
                       self.term) + 1
        self._reset_soft_state()
        self.term = new_term
        self.acting = True
        self._missed_leases = 0
        # The crashed/partitioned ex-peer must re-bootstrap by pulling;
        # don't burn a push timeout against it on every mutation.
        self._push_ok = False
        self._meta("term", new_term, self.endpoint.name)
        self.registry.counter("cluster.master.standby_promotions").inc()
        self.journal.emit("master.promote", node=self.endpoint.name,
                          term=new_term, route_epoch=self.partitions.epoch,
                          applied_seq=self.meta_wal.seq)
        if self._on_promote is not None:
            self._on_promote(self)

    # -- cluster membership -----------------------------------------------------

    def register_index_node(self, name: str) -> None:
        """Add an Index Node to the cluster membership."""
        if name in self.index_nodes:
            raise ClusterError(f"index node already registered: {name}")
        self._meta("member", name)

    def _require_nodes(self) -> None:
        if not self.index_nodes:
            raise UnknownIndexNode("no index nodes registered")

    # -- index DDL ----------------------------------------------------------------

    def create_index(self, spec: IndexSpec) -> None:
        """Register a globally-named index and propagate to every IN."""
        if spec.name in self.index_specs:
            raise ClusterError(f"index name already exists: {spec.name}")
        self._meta("index", spec.name, spec.kind.value, tuple(spec.attrs))
        for node in self.index_nodes:
            self._node_call(node, "create_index", spec)

    # -- routing epochs -------------------------------------------------------------
    #
    # Every change to the partition→node map (placement, split, merge,
    # migration, failover) bumps a monotonic routing epoch and logs which
    # partition changed.  Clients cache a versioned route table and only
    # come back when an Index Node NACKs their epoch — taking the Master
    # off the per-batch hot path.

    def _count_route_rpc(self) -> None:
        """One client↔Master routing round-trip (the hot-path cost the
        epoch protocol exists to shrink)."""
        self.registry.counter("cluster.master.route_rpcs").inc()

    def _bump_routing(self, acg_id: int) -> int:
        """Advance the routing epoch for one partition's change."""
        epoch = self.partitions.epoch + 1
        self._meta("epoch", epoch, acg_id)
        self._route_log.append((epoch, acg_id))
        if len(self._route_log) > _ROUTE_LOG_CAP:
            del self._route_log[:len(self._route_log) - _ROUTE_LOG_CAP]
        self.journal.emit("route.epoch_bump", node="master", acg_id=acg_id,
                          route_epoch=epoch)
        return epoch

    def _notify_owner(self, node: Optional[str], acg_id: int, epoch: int) -> None:
        """Tell an Index Node it now owns a partition (best-effort).

        A lost notification is safe: the node NACKs updates and
        searches for a partition it does not host, the client requeues,
        and the node's next heartbeat — which omits the partition —
        gets the grant re-sent (:meth:`report_heartbeat`)."""
        if node is not None:
            self._node_call_ok(node, "own_partition", acg_id, epoch)

    # -- replica sets (RF > 1) --------------------------------------------------------

    def _follower_nodes(self, primary: str) -> Tuple[str, ...]:
        """Ring placement: the rf-1 live nodes after ``primary`` in
        registration order (deterministic, spreads follower load)."""
        if self.replica_sets is None or primary not in self.index_nodes:
            return ()
        start = self.index_nodes.index(primary)
        ring = [self.index_nodes[(start + i) % len(self.index_nodes)]
                for i in range(1, len(self.index_nodes))]
        return tuple(ring[:self.replication_factor - 1])

    def _assign_followers(self, acg_id: int, force: bool = False) -> None:
        """(Re)install a partition's follower set on its primary.

        Best-effort: an unreachable primary parks the partition in the
        follower-sync debris set, retried every heartbeat round.
        Followers dropped from the set are told to forget their replica
        so a stale copy cannot linger behind a changed membership.

        ``force`` bumps the replication epoch even when membership is
        unchanged — required after any content change outside the
        replication stream (split, merge, adoption, re-placement), where
        the primary's log generation restarts and old-epoch watermarks
        stop being comparable.
        """
        if self.replica_sets is None:
            return
        syncs = self.state.syncs
        try:
            partition = self.partitions.get(acg_id)
        except ClusterError:
            if acg_id in syncs:
                self._meta("syncclear", acg_id)
            return
        primary = partition.node
        if primary is None:
            return
        state = self.replica_sets.state(acg_id)
        before = set(state.followers)
        followers = self._follower_nodes(primary)
        epoch = self.replica_sets.set_followers(acg_id, followers,
                                                force=force)
        if epoch != state.repl_epoch:
            self.journal.emit("repl.epoch_bump", acg_id=acg_id,
                              repl_epoch=epoch,
                              reason="forced" if force else "membership",
                              followers=list(followers))
        self._meta("repl", acg_id, epoch, followers)
        for removed in sorted(before - set(followers)):
            if removed in self.index_nodes:
                self._node_call_ok(removed, "drop_follower", acg_id)
        if self._node_call_ok(primary, "set_followers", acg_id, followers,
                              epoch):
            if acg_id in syncs:
                self._meta("syncclear", acg_id)
        elif syncs.get(acg_id) is not False:
            # The epoch bump (and any generation fence) is already
            # recorded master-side, so the retry only re-delivers it.
            self._meta("sync", acg_id, 0)

    def _retry_follower_syncs(self) -> None:
        for acg_id in sorted(self.state.syncs):
            self._assign_followers(
                acg_id, force=self.state.syncs.get(acg_id, False))

    def _route_replicas_of(self, acg_id: int) -> Tuple[str, ...]:
        if self.replica_sets is None:
            return ()
        state = self.replica_sets.get(acg_id)
        return state.followers if state is not None else ()

    def _effective_size(self, partition) -> int:
        """The larger of the Master's file map and the owner's reported
        count (clients place files without telling the Master)."""
        return max(partition.size,
                   self._reported_sizes.get(partition.partition_id, 0))

    def _least_loaded_effective(self, candidates: Sequence[str]) -> str:
        loads = {n: 0 for n in candidates}
        for p in self.partitions.partitions():
            if p.node in loads:
                loads[p.node] += self._effective_size(p)
        order = list(candidates)
        return min(order, key=lambda n: (loads[n], order.index(n)))

    def _build_route_table(self, since_epoch: int) -> RouteTable:
        current = self.partitions.epoch
        target = self.policy.cluster_target
        if since_epoch == current:
            return RouteTable(epoch=current, full=False,
                              cluster_target=target, fresh=True)
        by_id = {p.partition_id: p for p in self.partitions.partitions()}
        # The delta path works iff the change log still covers every
        # epoch in (since, current]; bumps append exactly one log entry
        # each, so coverage means the log reaches back to since+1.
        if (0 < since_epoch < current and self._route_log
                and self._route_log[0][0] <= since_epoch + 1):
            changed: List[int] = []
            seen: Set[int] = set()
            for epoch, acg_id in self._route_log:
                if epoch > since_epoch and acg_id not in seen:
                    seen.add(acg_id)
                    changed.append(acg_id)
            entries = []
            for acg_id in changed:
                p = by_id.get(acg_id)
                if p is None:
                    # Merged away: size -1 tells the client to forget it.
                    entries.append(RouteTableEntry(acg_id=acg_id, node=None, size=-1))
                else:
                    entries.append(RouteTableEntry(
                        acg_id=acg_id, node=p.node, size=self._effective_size(p),
                        replicas=self._route_replicas_of(acg_id)))
            self.machine.compute(_ROUTE_LOOKUP_OPS * max(1, len(entries)))
            return RouteTable(epoch=current, full=False, cluster_target=target,
                              entries=tuple(entries))
        full_entries = tuple(
            RouteTableEntry(acg_id=p.partition_id, node=p.node,
                            size=self._effective_size(p),
                            replicas=self._route_replicas_of(p.partition_id))
            for p in self.partitions.partitions())
        self.machine.compute(_ROUTE_LOOKUP_OPS * max(1, len(full_entries)))
        return RouteTable(epoch=current, full=True, cluster_target=target,
                          entries=full_entries)

    def route_table(self, since_epoch: int = 0) -> RouteTable:
        """Versioned routing snapshot: fresh marker, delta, or full table
        depending on how far behind ``since_epoch`` is."""
        self._count_route_rpc()
        return self._build_route_table(since_epoch)

    def allocate_partitions(self, count: int = 1,
                            since_epoch: int = 0) -> RouteTable:
        """Create ``count`` empty partitions spread across Index Nodes
        and return the route-table delta that describes them.

        This is the client's slab allocator: instead of routing every
        new file through the Master, a client grabs a batch of open
        partitions once and fills them locally.  Spreading reserves one
        ``cluster_target`` of capacity per grant so consecutive grants
        alternate across nodes the way per-file placement would."""
        self._require_nodes()
        self._count_route_rpc()
        loads = {n: 0 for n in self.index_nodes}
        for p in self.partitions.partitions():
            if p.node in loads:
                loads[p.node] += self._effective_size(p)
        for _ in range(max(1, count)):
            node = min(self.index_nodes,
                       key=lambda n: (loads[n], self.index_nodes.index(n)))
            acg_id = self.partitions.next_id
            self._meta("newpart", acg_id, node)
            epoch = self._bump_routing(acg_id)
            self._notify_owner(node, acg_id, epoch)
            self._assign_followers(acg_id)
            loads[node] += self.policy.cluster_target
        return self._build_route_table(since_epoch)

    # -- namespace change notifications ------------------------------------------------

    def lookup_file(self, file_ids: Sequence[int]) -> Dict[int, int]:
        """Read-only file→ACG lookup for a batch of files; a file this
        Master never heard of (client-placed, or unindexed) is left out.
        Never assigns anything."""
        self.machine.compute(_ROUTE_LOOKUP_OPS * max(1, len(file_ids)))
        homes = ((file_id, self.partitions.partition_of(file_id))
                 for file_id in file_ids)
        return {file_id: acg_id for file_id, acg_id in homes
                if acg_id is not None}

    def file_deleted(self, file_id: int) -> Optional[RouteEntry]:
        """Forget a deleted file; returns where it used to live."""
        self.machine.compute(_ROUTE_LOOKUP_OPS)
        acg_id = self.partitions.partition_of(file_id)
        if acg_id is None:
            return None
        node = self.partitions.get(acg_id).node
        self._meta("unfile", file_id)
        return RouteEntry(file_id=file_id, acg_id=acg_id, node=node or "")

    # -- heartbeats and background maintenance ---------------------------------------------

    def report_heartbeat(self, heartbeat: Heartbeat) -> None:
        """Record one Index Node's heartbeat (and its per-ACG counts —
        the Master's only view of client-placed files)."""
        self.heartbeats[heartbeat.node] = heartbeat
        by_id = {p.partition_id: p for p in self.partitions.partitions()}
        for acg_id, size in heartbeat.acg_sizes:
            partition = by_id.get(acg_id)
            if partition is not None and partition.node == heartbeat.node:
                self._reported_sizes[acg_id] = size
        # ``acg_sizes`` lists every replica the node hosts, empty ones
        # included: a partition placed here that it omits never got its
        # ``own_partition`` grant (or a restart lost the empty shell).
        hosted = {acg_id for acg_id, _size in heartbeat.acg_sizes}
        for acg_id, partition in by_id.items():
            if partition.node == heartbeat.node and acg_id not in hosted:
                self._notify_owner(heartbeat.node, acg_id,
                                   self.partitions.epoch)
        # Partition-summary piggyback: accept a snapshot only from the
        # partition's *current* owner (a stale ex-owner's summary could
        # otherwise mask the live replica) and bump the version only on
        # real changes so quiescent clusters stay on the fresh path.
        for snapshot in heartbeat.summaries:
            partition = by_id.get(snapshot.acg_id)
            if partition is None or partition.node != heartbeat.node:
                continue
            if self._summaries.get(snapshot.acg_id) != snapshot:
                self._summaries[snapshot.acg_id] = snapshot
                self._summary_version += 1
        # Replication piggyback (RF > 1): fold watermark reports into the
        # replica-set state, and notice primaries that *stopped* reporting
        # replication for a partition they own — a crash-restart lost the
        # in-memory log and follower map, so the assignment is re-driven.
        if self.replica_sets is not None:
            primaried: Set[int] = set()
            for record in heartbeat.replication:
                if record[0] == "p":
                    _, acg_id, repl_epoch, last_seq, acked = record
                    partition = by_id.get(acg_id)
                    if partition is not None and partition.node == heartbeat.node:
                        self.replica_sets.record_primary(
                            acg_id, repl_epoch, last_seq, acked)
                        primaried.add(acg_id)
                elif record[0] == "f":
                    _, acg_id, repl_epoch, applied = record
                    self.replica_sets.record_follower(
                        acg_id, heartbeat.node, repl_epoch, applied)
            for acg_id, _size in heartbeat.acg_sizes:
                partition = by_id.get(acg_id)
                if (partition is not None and partition.node == heartbeat.node
                        and acg_id not in primaried):
                    # Crash-restart lost the in-memory log: the primary
                    # will start a fresh generation, so the reassignment
                    # must bump the epoch (force) to invalidate every
                    # old-generation watermark.
                    if self.state.syncs.get(acg_id) is not True:
                        self._meta("sync", acg_id, 1)
            # The symmetric heal: a node this Master lists as *follower*
            # of a partition but which reports no follower replica for it
            # lost that replica (crash-restart — follower state is
            # memory-only).  Its primary still carries a stale acked
            # watermark and would never re-stream, so void it explicitly;
            # the primary's next tick re-installs from snapshot.
            followed = {acg_id for acg_id in self.replica_sets.partitions()
                        if heartbeat.node in
                        (self.replica_sets.state(acg_id).followers or ())}
            reported = {record[1] for record in heartbeat.replication
                        if record[0] == "f"}
            for acg_id in sorted(followed - reported):
                partition = by_id.get(acg_id)
                if partition is None or not partition.node:
                    continue
                # Same-generation heal (the primary's log is intact):
                # re-deliver the assignment, no epoch bump needed.
                if acg_id not in self.state.syncs:
                    self._meta("sync", acg_id, 0)
                try:
                    self._node_call(partition.node, "reset_follower_ack",
                                    acg_id, heartbeat.node)
                except ClusterError:
                    pass  # pending sync retries next poll

    def _drop_summary(self, acg_id: int) -> None:
        if self._summaries.pop(acg_id, None) is not None:
            self._summary_version += 1

    def summary_table(self, since_version: int = 0) -> SummaryTable:
        """Versioned dump of the partition-summary cache.

        Not a routing RPC (and not counted as one): clients poll this on
        their own throttle; the fresh marker makes the common quiescent
        poll nearly free."""
        if since_version == self._summary_version:
            return SummaryTable(version=self._summary_version, fresh=True)
        entries = tuple(self._summaries[acg_id]
                        for acg_id in sorted(self._summaries))
        self.machine.compute(_SUMMARY_COPY_OPS * max(1, len(entries)))
        return SummaryTable(version=self._summary_version, entries=entries)

    def poll_heartbeats(self) -> List[str]:
        """Pull a heartbeat from every Index Node, then act on oversized
        ACGs (the split trigger).  Nodes whose RPC fails are recorded as
        silent — :meth:`detect_failed_nodes` turns silence into failure.

        With :attr:`auto_failover` on, this is also the failure detector's
        trigger: a node whose endpoint is conclusively down (``NodeDown``
        survives the retry policy) or whose heartbeat has gone stale past
        :data:`HEARTBEAT_TIMEOUT_S` is failed over right here.  Returns
        the nodes that were failed over this round (always empty when
        auto-failover is off).
        """
        from repro.errors import NodeDown, RpcTimeout

        if not self.acting:
            return []
        conclusively_down = []
        for node in list(self.index_nodes):
            try:
                # (Recording it may re-send a lost grant: fenced alike.)
                self.report_heartbeat(self._node_call(node, "heartbeat"))
            except NodeDown:
                # The endpoint itself is down — process death, not a lost
                # message (retries already ruled those out).
                conclusively_down.append(node)
                continue
            except RpcTimeout:
                # Ambiguous: the node may be fine behind a lossy link.
                # Leave it to staleness detection.
                continue
            except StaleMasterTerm:
                # Fenced: a newer term exists, so this Master was deposed
                # while partitioned.  _node_call already journaled the
                # deposal; abort the whole round — a stale Master must
                # not detect failures, fail anything over, or split.
                return []
        try:
            self._retry_migration_debris()
            self._retry_follower_syncs()
        except StaleMasterTerm:
            return []
        failed_over: List[str] = []
        if self.auto_failover:
            suspects = set(conclusively_down)
            suspects.update(self.detect_failed_nodes())
            for node in sorted(suspects):
                if node not in self.index_nodes:
                    continue
                try:
                    self.failover(node, auto=True)
                except StaleMasterTerm:
                    return failed_over
                except ClusterError:
                    # Nobody left to adopt the partitions; keep the node
                    # registered so a later recovery can pick it back up.
                    continue
                failed_over.append(node)
        try:
            self.maybe_split()
        except StaleMasterTerm:
            return failed_over
        return failed_over

    def _retry_migration_debris(self) -> None:
        """Re-drive migration protocol steps that failed mid-flight.

        A ``finish_migration`` the source never heard leaves it holding a
        handed-off replica behind a durable handoff intent (it forwards,
        never applies); a ``cancel_transfer`` the source never heard
        leaves it NACKing its own partition.  Both are safe states —
        retried here until the node answers or leaves the cluster."""
        by_id = {p.partition_id: p for p in self.partitions.partitions()}
        for (node, acg_id), (target, moved) in list(self.state.finishes.items()):
            partition = by_id.get(acg_id)
            if node not in self.index_nodes or (
                    partition is not None and partition.node == node):
                # The node left the cluster, or ownership has since come
                # back to it (re-migration/failover) — the debris is moot.
                self._meta("finishclear", node, acg_id)
                self._finish_events.pop((node, acg_id), None)
                continue
            if not self._node_call_ok(node, "finish_migration", acg_id):
                continue
            self._meta("finishclear", node, acg_id)
            event = self._finish_events.pop((node, acg_id), None)
            if event is not None:
                event.outcome = "done"
            self.journal.emit("migration.done", node=target,
                              acg_id=acg_id, retried=True,
                              moved_files=moved)
        for (node, acg_id) in list(self.state.cancels):
            if (node not in self.index_nodes
                    or self._node_call_ok(node, "cancel_transfer", acg_id)):
                self._meta("cancelclear", node, acg_id)

    def detect_failed_nodes(self) -> List[str]:
        """Index Nodes whose last heartbeat is older than
        :data:`HEARTBEAT_TIMEOUT_S` (or that never reported one since
        registering)."""
        now = self.machine.clock.now()
        failed = []
        for node in self.index_nodes:
            heartbeat = self.heartbeats.get(node)
            if heartbeat is None or now - heartbeat.timestamp > HEARTBEAT_TIMEOUT_S:
                failed.append(node)
        return failed

    def failover(self, failed_node: str, auto: bool = False) -> int:
        """Reassign a dead node's ACGs to survivors from shared storage.

        Each of the failed node's partitions is adopted by the currently
        least-loaded *reachable* survivor, restoring from the checkpoint
        the dead node wrote to the shared file system.  Updates
        acknowledged after the last checkpoint are lost (they live in the
        dead node's local WAL) — the paper's consistency guarantee covers
        searches against live nodes, not durability across permanent node
        loss.

        Failover tolerates concurrent failures: an adoption target that
        is itself down (or times out) is skipped in favor of the next
        survivor.  If a partition finds no reachable adopter at all it
        stays on the failed node and the node stays registered, so the
        next heartbeat round retries the failover instead of stranding
        the partition forever.  Partial progress is safe — adopted
        partitions already point at their new home and are skipped on
        the retry.

        Returns the number of partitions moved.
        """
        from repro.cluster.persistence import replica_path
        from repro.errors import NodeDown, RpcTimeout

        if failed_node not in self.index_nodes:
            raise UnknownIndexNode(failed_node)
        survivors = [n for n in self.index_nodes if n != failed_node]
        if not survivors:
            raise ClusterError("no surviving index nodes to fail over to")
        moved_ids: List[int] = []
        # Partition id -> why its checkpoint could not be adopted.
        lost: Dict[int, str] = {}
        promoted_ids: List[int] = []
        watermarks: List[Tuple[int, int]] = []
        # Best lagging promotion candidate per partition — reported on a
        # deferred round so the operator can see *how far* behind the
        # would-be adopter was.
        lag_watermarks: Dict[int, Tuple[str, int]] = {}
        stranded_ids: List[int] = []
        unreachable: Set[str] = set()
        victim_hb = self.heartbeats.get(failed_node)
        victim_heartbeat_t = victim_hb.timestamp if victim_hb is not None else 0.0
        with self.tracer.span("failover", failed_node=failed_node) as span:
            for partition in self.partitions.partitions():
                if partition.node != failed_node:
                    continue
                # Promotion first (RF > 1): a caught-up live follower
                # takes over with an epoch bump — no checkpoint read, no
                # WAL replay.  Only when no follower is viable does the
                # partition fall back to checkpoint adoption below.
                promoted_seq = self._try_promote(partition, unreachable,
                                                 lag_watermarks)
                if promoted_seq is not None:
                    promoted_ids.append(partition.partition_id)
                    watermarks.append((partition.partition_id, promoted_seq))
                    continue
                path = replica_path(failed_node, partition.partition_id)
                placed = False
                while not placed:
                    candidates = [n for n in survivors if n not in unreachable]
                    if not candidates:
                        stranded_ids.append(partition.partition_id)
                        break
                    target = self._least_loaded_effective(candidates)
                    try:
                        adopted = self._node_call(target, "adopt_acg", path)
                    except (FileSystemError, SegmentCorruption) as exc:
                        # The victim never checkpointed this ACG, or the
                        # checkpoint fails validation: its data is gone
                        # with the node.  Leave the partition unplaced —
                        # clients forget the files they kept in it and
                        # place them anew — instead of crashing the whole
                        # failover and stranding its neighbours.
                        self._meta("place", partition.partition_id, None)
                        lost[partition.partition_id] = (
                            "corrupt" if isinstance(exc, SegmentCorruption)
                            else "missing")
                        self._reported_sizes.pop(partition.partition_id, None)
                        self._drop_summary(partition.partition_id)
                        self._bump_routing(partition.partition_id)
                        self.registry.counter(
                            "cluster.master.partitions_lost").inc()
                        placed = True
                    except (NodeDown, RpcTimeout):
                        unreachable.add(target)
                    else:
                        self._meta("place", partition.partition_id, target)
                        # The adopter's heartbeat hasn't fired yet; seed
                        # the reported size so load-aware placement sees
                        # the restored files immediately.
                        self._reported_sizes[partition.partition_id] = adopted
                        moved_ids.append(partition.partition_id)
                        self._notify_owner(
                            target, partition.partition_id,
                            self._bump_routing(partition.partition_id))
                        # Checkpoint adoption starts a new log generation
                        # on the adopter: fence immediately (force bump)
                        # so surviving old-generation followers can never
                        # qualify for promotion against the restored
                        # copy.  A dead node picked into the new ring
                        # self-heals on the next heartbeat round.
                        self._assign_followers(partition.partition_id,
                                               force=True)
                        placed = True
            span.set_attribute("moved", len(moved_ids))
            span.set_attribute("promoted", len(promoted_ids))
            span.set_attribute("stranded", len(stranded_ids))
        if stranded_ids and not moved_ids and not lost and not promoted_ids:
            # Nothing could be placed this round: every survivor was
            # unreachable and every replica candidate was down or itself
            # lagging.  Name the deferral (instead of the old silent
            # retry) so stranded partitions are visible in the log, then
            # leave state untouched for the next heartbeat poll to retry.
            self.registry.counter("cluster.master.failover_deferred").inc()
            deferred_event = FailoverEvent(
                t=self.machine.clock.now(), node=failed_node,
                moved=(), lost=(), auto=auto, outcome="deferred",
                deferred=tuple(sorted(stranded_ids)),
                watermarks=tuple(sorted(
                    (acg, seq) for acg, (_node, seq) in lag_watermarks.items())),
                victim_heartbeat_t=victim_heartbeat_t)
            self.journal.emit("failover.deferred", node=failed_node,
                              payload=deferred_event, auto=auto,
                              deferred=list(deferred_event.deferred))
            raise ClusterError(
                f"no reachable survivor could adopt {failed_node}'s partitions")
        if not stranded_ids:
            self._meta("unmember", failed_node)
            self.heartbeats.pop(failed_node, None)
            if self.replica_sets is not None:
                # Partitions that used the dead node as a *follower* need
                # their replica sets rebuilt on the next round.
                for acg_id in self.replica_sets.partitions():
                    state = self.replica_sets.get(acg_id)
                    if (state is not None and failed_node in state.followers
                            and acg_id not in self.state.syncs):
                        self._meta("sync", acg_id, 0)
        self.registry.counter("cluster.master.failovers").inc()
        if auto:
            self.registry.counter("cluster.master.auto_failovers").inc()
        outcome = "promoted" if promoted_ids and not moved_ids else "adopted"
        event = FailoverEvent(
            t=self.machine.clock.now(), node=failed_node,
            moved=tuple(sorted(moved_ids)), lost=tuple(sorted(lost)),
            auto=auto, outcome=outcome,
            promoted=tuple(sorted(promoted_ids)),
            watermarks=tuple(sorted(watermarks)),
            victim_heartbeat_t=victim_heartbeat_t)
        self.journal.emit(f"failover.{outcome}", node=failed_node,
                          payload=event, auto=auto,
                          moved=list(event.moved), lost=list(event.lost),
                          lost_reasons=dict(sorted(lost.items())),
                          promoted=list(event.promoted))
        self.registry.counter(
            "cluster.master.reassigned_partitions").inc(
                len(moved_ids) + len(promoted_ids))
        return len(moved_ids) + len(promoted_ids)

    def _try_promote(self, partition, unreachable: Set[str],
                     lag_watermarks: Dict[int, Tuple[str, int]]) -> Optional[int]:
        """Promote a caught-up live follower of one partition, if any.

        Viability is checked against the primary's last *known* committed
        sequence with a live watermark query (heartbeat state may lag),
        and only within the current replication epoch: a follower whose
        live epoch differs belongs to an older log generation or
        membership, so its applied sequence is not comparable — promoting
        on it could resurrect split-away files or drop every post-restart
        acked write.  Returns the promoted replica's applied sequence, or
        None when no follower is viable — same-epoch lagging candidates
        leave their best watermark in ``lag_watermarks`` for the
        deferred-event report.
        """
        from repro.errors import NodeDown, RpcTimeout

        if self.replica_sets is None:
            return None
        acg_id = partition.partition_id
        state = self.replica_sets.get(acg_id)
        if state is None or not state.followers:
            return None
        target_seq = state.primary_seq
        for follower, _reported in self.replica_sets.promotion_candidates(acg_id):
            if (follower not in self.index_nodes or follower == partition.node
                    or follower in unreachable):
                continue
            try:
                follower_epoch, applied = self._node_call(
                    follower, "replica_watermark", acg_id)
            except (NodeDown, RpcTimeout):
                unreachable.add(follower)
                continue
            except StaleMasterTerm:
                raise
            except ClusterError:
                continue  # lost its follower state (crash-restarted)
            if follower_epoch != state.repl_epoch:
                continue  # stale generation/membership: not comparable
            if applied < target_seq:
                best = lag_watermarks.get(acg_id)
                if best is None or applied > best[1]:
                    lag_watermarks[acg_id] = (follower, applied)
                continue
            # The bump fences the old primary; the promoted one continues
            # its log, so the watermarks carry over.
            new_epoch = state.repl_epoch + 1
            self.journal.emit("repl.epoch_bump", acg_id=acg_id,
                              repl_epoch=new_epoch, reason="promotion",
                              followers=list(state.followers))
            self._meta("repl", acg_id, new_epoch, state.followers)
            try:
                applied_seq, file_count = self._node_call(
                    follower, "promote_replica", acg_id, new_epoch)
            except (NodeDown, RpcTimeout):
                unreachable.add(follower)
                continue
            except StaleMasterTerm:
                raise
            except ClusterError:
                continue
            with self.tracer.span("promote", acg=acg_id,
                                  target=follower) as span:
                span.set_attribute("applied_seq", applied_seq)
            self._meta("place", acg_id, follower)
            self._reported_sizes[acg_id] = file_count
            self._drop_summary(acg_id)
            self._notify_owner(follower, acg_id, self._bump_routing(acg_id))
            # Promotion continues the log generation (the new primary's
            # log is based at its applied watermark), so the rebuild of
            # its follower ring needs no forced generation bump.
            if acg_id not in self.state.syncs:
                self._meta("sync", acg_id, 0)
            self.registry.counter("cluster.master.promotions").inc()
            return applied_seq
        return None

    def maybe_split(self) -> List[SplitDecision]:
        """Split every partition that outgrew the policy threshold.

        A partition whose owner is currently unreachable is skipped — the
        split re-triggers on a later round (or after failover).
        """
        from repro.errors import NodeDown, RpcTimeout

        decisions = []
        for partition in list(self.partitions.partitions()):
            if (self._effective_size(partition) > self.policy.split_threshold
                    and partition.node):
                try:
                    decisions.append(self._split_partition(partition.partition_id))
                except (NodeDown, RpcTimeout):
                    continue
        return decisions

    def _split_partition(self, acg_id: int) -> SplitDecision:
        partition = self.partitions.get(acg_id)
        source = partition.node
        assert source is not None
        with self.tracer.span("split", acg=acg_id, source=source):
            return self._split_partition_inner(acg_id, partition, source)

    def _split_partition_inner(self, acg_id: int, partition,
                               source: str) -> SplitDecision:
        halves = self._node_call(source, "compute_split", acg_id, self.policy)
        stay, move = set(halves[0]), set(halves[1])
        # Clients place files into partitions without telling the Master;
        # the split is the moment those become visible.  Adopt them into
        # the authoritative map before reconciling.
        for file_id in sorted(stay | move):
            if self.partitions.partition_of(file_id) is None:
                self._meta("file", file_id, acg_id)
        # The IN's ACG may lag the MN's file map (weak ACG consistency);
        # reconcile against the authoritative mapping.
        known = set(partition.files)
        stay &= known
        move &= known
        for orphan in sorted(known - stay - move):
            (stay if len(stay) <= len(move) else move).add(orphan)
        target = self._least_loaded_effective(
            [n for n in self.index_nodes if n != source] or self.index_nodes)
        new_id = self.partitions.next_id
        self._meta("newpart", new_id, target)
        for file_id in sorted(move):
            self._meta("file", file_id, new_id)
        # Both halves change shape: clients must re-learn where the source
        # ACG's files live.  The source's epoch is bumped *before* the cut
        # and handed to it, so its route fence refuses a request a
        # pre-split table routed — it may name a file that moved.
        epoch = self._bump_routing(acg_id)
        segment = self._node_call(source, "extract_partition", acg_id,
                                  tuple(sorted(move)), epoch)
        moved = len(self._node_call(target, "install_partition", new_id,
                                    segment))
        self._reported_sizes.pop(acg_id, None)
        self._drop_summary(acg_id)
        self._notify_owner(target, new_id, self._bump_routing(new_id))
        # Both halves changed content outside the replication stream; the
        # primaries re-bootstrap their followers from fresh snapshots,
        # and the forced epoch bump fences every pre-split watermark.
        self._assign_followers(acg_id, force=True)
        self._assign_followers(new_id, force=True)
        decision = SplitDecision(acg_id=acg_id, new_acg_id=new_id,
                                 source_node=source, target_node=target,
                                 moved_files=moved)
        self.splits.append(decision)
        self.registry.counter("cluster.master.splits").inc()
        return decision

    # -- load balancing and merging -------------------------------------------------------------
    #
    # Section IV: Index Nodes optimize "the organizations of file indices
    # (splitting large indices, merging small ones, or migrate
    # indices/ACGs to other IndexNodes) under the instructions from
    # MasterNode".  Splits are handled above; these two cover the rest.

    def migrate_partition(self, acg_id: int, target: str) -> int:
        """Move one ACG to another Index Node *online*; returns files moved.

        The protocol keeps the partition writable throughout:

        1. ``transfer_out`` — the source commits its cache, checkpoints
           the replica to shared storage, packages its full contents
           **without deleting them**, and durably records a *handoff
           intent*: from here on it forwards updates for this ACG to the
           target instead of applying them, and its WAL replay skips
           this ACG's records (a crashed source must not resurrect data
           it handed off).
        2. ``install_partition`` + ``checkpoint_acg`` — the target takes
           the contents and immediately checkpoints them, so a target
           crash right after the flip still fails over with the data.
        3. The Master flips routing (epoch bump + ``own_partition``).
           Clients with the old route get forwarded during the brief
           dual-ownership window, then refresh on the next NACK.
        4. ``finish_migration`` — the source drops its replica, clears
           the intent, and removes its now-stale shared checkpoint.

        A failure before the flip rolls back (``cancel_transfer``); a
        failure after the flip leaves only cleanup pending.  Either
        cleanup RPC failing parks the step in a debris map retried on
        every heartbeat round — both intermediate states are safe.
        """
        partition = self.partitions.get(acg_id)
        source = partition.node
        if source is None:
            raise ClusterError(f"partition {acg_id} is not placed yet")
        if target not in self.index_nodes:
            raise UnknownIndexNode(target)
        if source == target:
            return 0
        def has_debris() -> bool:
            return any(key[1] == acg_id for key in
                       (*self.state.finishes, *self.state.cancels))

        if has_debris():
            self._retry_migration_debris()
            if has_debris():
                raise ClusterError(
                    f"partition {acg_id} has unresolved migration debris")
        event = MigrationEvent(acg_id=acg_id, source=source, target=target,
                               t_start=self.machine.clock.now())
        with self.tracer.span("migrate", acg=acg_id, source=source,
                              target=target):
            self.journal.emit("migration.start", node=source, acg_id=acg_id,
                              payload=event, target=target)
            try:
                segment = self._node_call(source, "transfer_out", acg_id, target)
            except ClusterError:
                event.outcome = "aborted"
                self.journal.emit("migration.aborted", node=source,
                                  acg_id=acg_id, stage="transfer_out")
                self.registry.counter("cluster.master.migrations_aborted").inc()
                raise
            try:
                moved = len(self._node_call(target, "install_partition",
                                            acg_id, segment))
                self._node_call(target, "checkpoint_acg", acg_id)
            except StaleMasterTerm:
                raise
            except ClusterError:
                # The target never (durably) took ownership: undo the
                # target's partial install if we can, and lift the
                # source's handoff intent (deferring if it is down).
                self._node_call_ok(target, "drop_partition", acg_id)
                if (not self._node_call_ok(source, "cancel_transfer", acg_id)
                        and (source, acg_id) not in self.state.cancels):
                    self._meta("cancel", source, acg_id)
                event.outcome = "aborted"
                self.journal.emit("migration.aborted", node=source,
                                  acg_id=acg_id, stage="install")
                self.registry.counter("cluster.master.migrations_aborted").inc()
                raise
            # Point of no return: flip routing to the target.
            self._meta("place", acg_id, target)
            epoch = self._bump_routing(acg_id)
            event.t_flip = self.machine.clock.now()
            event.epoch = epoch
            event.moved_files = moved
            self._notify_owner(target, acg_id, epoch)
            # The target's copy starts a fresh replication log: force the
            # epoch bump so old-generation follower watermarks are fenced.
            self._assign_followers(acg_id, force=True)
            self.registry.counter("cluster.master.migrations").inc()
            if not self._node_call_ok(source, "finish_migration", acg_id):
                event.outcome = "finish_deferred"
                self._finish_events[(source, acg_id)] = event
                self._meta("finish", source, acg_id, target, moved)
                self.journal.emit("migration.finish_deferred", node=source,
                                  acg_id=acg_id, route_epoch=epoch)
                self.registry.counter(
                    "cluster.master.migration_finish_deferred").inc()
            else:
                event.outcome = "done"
                self.journal.emit("migration.done", node=target,
                                  acg_id=acg_id, route_epoch=epoch,
                                  moved_files=moved)
        return moved

    def rebalance(self, tolerance: float = 0.25) -> int:
        """Move partitions until no node exceeds the mean load by more
        than ``tolerance``; returns how many partitions moved.

        Greedy: repeatedly take the smallest partition off the most
        loaded node and give it to the least loaded one, while that
        actually reduces imbalance.
        """
        if len(self.index_nodes) < 2:
            return 0
        moves = 0
        while True:
            loads = {n: 0 for n in self.index_nodes}
            for p in self.partitions.partitions():
                if p.node in loads:
                    loads[p.node] += self._effective_size(p)
            mean = sum(loads.values()) / len(loads)
            heavy = max(loads, key=lambda n: loads[n])
            light = min(loads, key=lambda n: loads[n])
            if mean == 0 or loads[heavy] <= mean * (1 + tolerance):
                return moves
            candidates = [p for p in self.partitions.partitions()
                          if p.node == heavy and self._effective_size(p)]
            if not candidates:
                return moves
            victim = min(candidates, key=self._effective_size)
            # Moving must not just swap the imbalance around.
            if loads[light] + self._effective_size(victim) >= loads[heavy]:
                return moves
            self.migrate_partition(victim.partition_id, light)
            moves += 1

    def merge_partitions(self, keep_id: int, absorb_id: int) -> int:
        """Fold one ACG into another (anti-fragmentation); returns files
        absorbed.  The surviving partition keeps its node; the absorbed
        one's contents migrate there and its id disappears."""
        if keep_id == absorb_id:
            raise ClusterError("cannot merge a partition with itself")
        keep = self.partitions.get(keep_id)
        absorb = self.partitions.get(absorb_id)
        if keep.node is None or absorb.node is None:
            raise ClusterError("both partitions must be placed before merging")
        # file_ids=None extracts everything the node hosts, including
        # client-placed files the Master never heard about.
        segment = self._node_call(absorb.node, "extract_partition",
                                  absorb_id, None)
        installed = self._node_call(keep.node, "install_partition", keep_id,
                                    segment)
        self._node_call(absorb.node, "drop_partition", absorb_id)
        for file_id in list(absorb.files):
            self._meta("file", file_id, keep_id)
        for file_id in installed:
            if self.partitions.partition_of(file_id) is None:
                self._meta("file", file_id, keep_id)
        self._meta("droppart", absorb_id)
        self._reported_sizes.pop(absorb_id, None)
        self._reported_sizes.pop(keep_id, None)
        self._drop_summary(absorb_id)
        self._drop_summary(keep_id)
        # Two visible routing changes: the absorbed id disappears (size
        # -1 in deltas) and the survivor's contents changed shape.
        self._bump_routing(absorb_id)
        self._bump_routing(keep_id)
        if self.replica_sets is not None:
            state = self.replica_sets.get(absorb_id)
            for follower in (state.followers if state else ()):
                if follower in self.index_nodes:
                    self._node_call_ok(follower, "drop_follower", absorb_id)
            self._meta("repldrop", absorb_id)
            if absorb_id in self.state.syncs:
                self._meta("syncclear", absorb_id)
            # The survivor absorbed content outside the replication
            # stream: new log generation, forced fence.
            self._assign_followers(keep_id, force=True)
        return len(installed)

    def merge_small_partitions(self, min_size: Optional[int] = None) -> int:
        """Merge undersized partitions pairwise until none (or one) is
        left below ``min_size`` (default: half the clustering target).
        Returns the number of merges performed."""
        threshold = min_size if min_size is not None else self.policy.cluster_target // 2
        merges = 0
        while True:
            small = sorted((p for p in self.partitions.partitions()
                            if 0 < self._effective_size(p) < threshold and p.node),
                           key=self._effective_size)
            if len(small) < 2:
                return merges
            keep, absorb = small[0], small[1]
            self.merge_partitions(keep.partition_id, absorb.partition_id)
            merges += 1

    # -- checkpointing ------------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush index metadata to shared storage (crash protection).

        Also folds the meta-WAL into a fresh snapshot image, so the log
        a restarted Master replays (and the tail a standby streams) stays
        bounded by the checkpoint period.  The durability charge below
        already covers the metadata image; the meta-WAL itself carries
        no separate simulated cost.
        """
        nbytes = sum(_CHECKPOINT_BYTES_PER_FILE * (p.size + 1)
                     for p in self.partitions.partitions())
        # Metadata checkpoints land on shared storage, not the local disk.
        with self.tracer.span("master_checkpoint", bytes=max(512, nbytes)):
            self._shared_device.append(max(512, nbytes))
        if self.acting:
            self.meta_wal.checkpoint(self.state.snapshot())
        self.checkpoints_written += 1
        self.registry.counter("cluster.master.checkpoints").inc()
