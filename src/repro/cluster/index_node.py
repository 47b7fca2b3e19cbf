"""Index Node.

Hosts the partitioned file indices: for every ACG assigned to it, an
:class:`AcgReplica` bundles the ACG itself, the attribute store (ground
truth for residual filtering) and one instance of each user-defined index.
Updates take the WAL → cache → commit path; searches force a commit of the
queried ACGs first, so results are always consistent with acknowledged
updates.  Background duties: committing timed-out cache buckets,
heart-beating the Master Node, and computing/executing ACG splits on
instruction.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple, Union)

from repro.cluster.cache import IndexCache
from repro.cluster.messages import (Heartbeat, IndexUpdate, ReplicaSearchReply,
                                    SearchReply, SearchResult, UpdateAck,
                                    UpdateBatch, UpdateOp, Watermark,
                                    envelope_wire_bytes)
from repro.cluster.persistence import (read_checkpoint, remove_checkpoint,
                                       write_checkpoint)
from repro.cluster.rpcs import INDEX_NODE, serve
from repro.cluster.segments import (FrozenPartition, SegmentCache, SegmentView,
                                    TierPolicy, decode_segment, dump_segment,
                                    encode_segment, load_segment, segment_key)
from repro.cluster.wal import WriteAheadLog
from repro.core.acg import AccessCausalityGraph
from repro.core.partitioner import PartitioningPolicy, split_partition
from repro.errors import (ClusterError, ObjectStoreError, SegmentCorruption,
                          StaleMasterTerm, StaleReplEpoch, StaleRoute,
                          UnknownAcg, UnknownIndexName, WalCorruption)
from repro.indexstructures.base import Index, IndexKind, make_index
from repro.obs.freshness import NULL_FRESHNESS
from repro.obs.journal import NULL_JOURNAL
from repro.obs.tracing import NULL_TRACER
from repro.query.ast import Predicate
from repro.query.executor import (DEGRADABLE_ERRORS, AttributeStore, execute,
                                  execute_plans)
from repro.replication.log import ReplicationLog
from repro.query.summary import (PartitionSummary, SummarySnapshot,
                                 summary_may_match)
from repro.query.planner import KEYWORD_ATTR, IndexSpec, Plan
from repro.query.prepared import PreparedCache, PreparedQuery
from repro.sim.machine import Machine
from repro.sim.rpc import (DEFAULT_MSG_BYTES, CallOutcome, RpcEndpoint,
                           scatter)

# CPU cost constants (order-of-magnitude figures for 2014-era Xeons).
_CACHE_ADD_OPS = 2_000          # hash insert into the in-memory cache
_EXAMINE_OPS = 500              # residual-filter one candidate
_REBUILD_OPS_PER_FILE = 100     # re-observe one file during summary rebuild
# Group-commit amortization.  A batch envelope pays the full per-update
# price once (parse, route, cache-bucket lookup) and a marginal price
# for each further update that rides the same envelope / sorted run:
_CACHE_ADD_BATCHED_OPS = 500    # marginal cache insert within an envelope
_COMMIT_BATCH_BASE_OPS = 4_000  # per-batch setup of one bulk apply
_COMMIT_BATCHED_UPDATE_OPS = 2_000  # marginal bulk-apply cost per update
# Bitmap posting lists materialize results word-at-a-time instead of
# doc-at-a-time; one examine charge covers this many matches.
_VECTOR_WIDTH = 8
# Tiered storage: CPU to serialize one file into a frozen segment and
# to parse one row back out of it — charged when a search decodes the
# row, not when the segment is fetched (a memoised row is free).
_FREEZE_OPS_PER_FILE = 200
_HYDRATE_OPS_PER_FILE = 150

# Distinct predicates a node keeps prepared (canonical form, compiled
# matcher, plans per spec set) between requests.
_PREPARED_CAP = 512


_KeyOf = Callable[[Dict[str, Any]], Optional[Any]]
# A non-keyword index as one commit walks it: the index, its key function
# and the batch's ``(key, file_id)`` pairs for it.
_Keyed = Tuple[Index, _KeyOf, List[Tuple[Any, int]]]
# An ACG replica's indexes as one commit walks them
# (:meth:`AcgReplica._spec_groups`): the keyword hash indexes, the rest.
_SpecGroups = Tuple[List[Index], List[_Keyed]]
# What the indexes hold for one file before a commit touches it: its key
# in each non-keyword index (in ``_Keyed`` order) and its path keywords;
# None for a file the store does not hold.
_Indexed = Optional[Tuple[List[Any], FrozenSet[str]]]


def _same_key(old: Any, new: Any) -> bool:
    """Whether a file's key in an index stays put across a commit: equal
    *and* of one type, so ``1`` → ``1.0`` still moves (the index keeps
    the key the store holds), and not NaN — NaN equals nothing, so a K-D
    point holding one keeps its remove-then-insert (a NaN attribute
    value has no single-attribute key at all: :func:`_key_of`)."""
    if type(old) is not type(new) or old != new:
        return False
    return type(new) is not tuple or all(x == x for x in new)


def _key_of(spec: IndexSpec) -> _KeyOf:
    """How a file's attributes map to its key in ``spec``'s (non-keyword)
    index; None means the file is not in that index.  A NaN value gets
    no single-attribute key: it satisfies no ``==`` or ordered
    comparison, so no probe needs it — and a B+tree, whose bisects it
    would break, then holds only keys that order, which is what lets a
    range scan be the exact answer (``PreparedQuery.exact_access``)."""
    if spec.kind is not IndexKind.KDTREE:
        attr = spec.attrs[0]

        def scalar(attrs: Dict[str, Any]) -> Optional[Any]:
            value = attrs.get(attr)
            return None if value != value else value
        return scalar
    names = spec.attrs

    def point(attrs: Dict[str, Any]) -> Optional[Tuple[float, ...]]:
        values = [attrs.get(a) for a in names]
        # A K-D index covers only files where every attribute is
        # present *and numeric*; others are served by the residual
        # filter path.
        if any(v is None or isinstance(v, (str, bytes)) for v in values):
            return None
        try:
            return tuple(float(v) for v in values)
        except (TypeError, ValueError):
            return None
    return point


def _is_keyword_index(spec: IndexSpec) -> bool:
    """A keyword hash index holds one entry per path token of a file."""
    return spec.attrs[0] == KEYWORD_ATTR and spec.kind is IndexKind.HASH


class AcgReplica:
    """Everything one Index Node keeps for one ACG."""

    def __init__(self, acg_id: int, machine: Machine,
                 incarnation: int = 0) -> None:
        self.acg_id = acg_id
        self.machine = machine
        self.graph = AccessCausalityGraph()
        self.store = AttributeStore()
        self.indexes: Dict[str, Index] = {}
        self.specs: Dict[str, IndexSpec] = {}
        # Commit-watermark pieces: ``incarnation`` is a per-node counter
        # stamped at replica creation (a dropped-then-recreated replica
        # can reach the same applied count with different content, so
        # the count alone is not a safe version), ``applied`` bumps once
        # per committed update.  Together with the node name they form
        # the watermark that versions summaries and stamped answers.
        self.incarnation = incarnation
        self.applied = 0
        # Pruning summary, widened in lock-step with every apply_batch() —
        # the bookkeeping rides on the commit's existing CPU charge.
        self.summary = PartitionSummary()
        # ACG merges, which change the graph without an apply: with the
        # watermark and the spec names they key :meth:`segment`.
        self.graph_edits = 0
        self._segment: Optional[Tuple[Tuple[Any, ...], bytes]] = None

    # On-disk footprint multiplier: the attribute store plus roughly one
    # serialized structure per index (B+tree, hash, serialized KD-tree).
    _INDEX_BYTES_FACTOR = 4

    def resident_bytes(self) -> int:
        """Bytes this ACG's indices occupy when loaded into RAM.

        The prototype stores each group's indices serialized (notably the
        KD-tree) and loads them whole to serve a query — this is the unit
        of the residency/eviction model in :class:`IndexNode`.
        """
        return 4096 + self._INDEX_BYTES_FACTOR * self.store.estimated_bytes()

    def ensure_index(self, spec: IndexSpec) -> Index:
        """Instantiate the index for ``spec`` on first use."""
        index = self.indexes.get(spec.name)
        if index is None:
            kwargs = {}
            if spec.kind is IndexKind.KDTREE:
                kwargs["dimensions"] = len(spec.attrs)
            index = make_index(spec.kind, **kwargs)
            self.indexes[spec.name] = index
            self.specs[spec.name] = spec
        return index

    def merge_graph(self, records: Sequence[Tuple[int, int, int]]) -> None:
        """Fold ACG records (a client's flushed fragment, or a
        segment's) into this replica's graph."""
        self.graph.merge(records)
        self.graph_edits += 1

    def segment(self, node_name: str,
                encode: Callable[["AcgReplica", str], bytes],
                fresh: bool = False) -> Tuple[bytes, bool]:
        """This replica's whole segment with no pending tail, and whether
        it is the last one remembered: a segment is canonical, so while
        nothing :func:`encode_segment` reads has changed — watermark,
        graph, specs — its bytes are the last encoding's.  Otherwise, or
        when ``fresh`` (a freeze, which the cold tier books as its own
        encode), ``encode(self, node_name)`` runs and is remembered."""
        key = (node_name, self.incarnation, self.applied, self.graph_edits,
               tuple(self.specs))
        if not fresh and self._segment is not None \
                and self._segment[0] == key:
            return self._segment[1], True
        data = encode(self, node_name)
        self._segment = (key, data)
        return data, False

    # -- applying committed updates ------------------------------------------

    def _spec_groups(self) -> _SpecGroups:
        """The replica's indexes sorted by how a file maps to keys — once
        per batch instead of once per file per spec: keyword hash indexes
        (one key per path token), and the rest (single-attribute or K-D),
        each with its key function and an empty list for the batch's
        ``(key, file_id)`` pairs."""
        keyword: List[Index] = []
        keyed: List[_Keyed] = []
        for name, spec in self.specs.items():
            if _is_keyword_index(spec):
                keyword.append(self.indexes[name])
            else:
                keyed.append((self.indexes[name], _key_of(spec), []))
        return keyword, keyed

    def apply_batch(self, updates: Sequence[IndexUpdate]) -> None:
        """Apply one group commit: amortized charge, delta index update.

        Final index/store/summary state is what applying the updates
        one by one in order would leave (upserts carry complete attribute
        snapshots, so last-write-wins composes), but the work is what the
        batch changed.  Store mutations run in order; a file's first
        touch records what the indexes hold for it.  After the batch each
        index removes and inserts only the keys that moved — none for a
        rewrite under the same path with the same key, every key for a
        file new to the store, and the pre-batch keys of a deleted one —
        the insertions grouped per index and merged in one sorted pass
        (``bulk_insert``).  The summary widens once per batch over the
        surviving upserted files: zones and attribute names from their
        full attributes, the Bloom filter from their *added* tokens,
        which sets the same bits as adding every token because the
        filter holds every token of every stored file (it is add-only,
        and a rebuild works from the store).  The CPU charge is counted
        from the batch, not the delta: full setup once, a marginal cost
        per update.
        """
        if not updates:
            return
        nspecs = max(1, len(self.specs))
        self.machine.compute(_COMMIT_BATCH_BASE_OPS * nspecs
                             + _COMMIT_BATCHED_UPDATE_OPS * nspecs * len(updates))
        keyword, keyed = self._spec_groups()
        store = self.store
        # Each touched file's pre-batch index entries, taken before
        # ``store.put`` refreshes its attribute dict in place.
        before: Dict[int, _Indexed] = {}
        # Files upserted in this batch and stored at its end (dict keeps
        # first-upsert-after-last-delete order for deterministic inserts).
        pending: Dict[int, None] = {}
        # A rebuild resets the Bloom filter to what the store holds at
        # that moment: a token a file held before the batch is then no
        # longer known to be in it.
        rebuilt = False
        for update in updates:
            self.applied += 1
            file_id = update.file_id
            if file_id not in before:
                before[file_id] = None if file_id not in store else (
                    [key_of(store.attrs(file_id)) for _, key_of, _ in keyed],
                    store.keywords(file_id))
            if update.op is UpdateOp.DELETE:
                pending.pop(file_id, None)
                store.drop(file_id)
                self.graph.remove_file(file_id)
                self.summary.note_delete()
                if self.summary.needs_rebuild(len(store)):
                    self.machine.compute(
                        _REBUILD_OPS_PER_FILE * max(1, len(store)))
                    self.summary.rebuild(store)
                    rebuilt = True
                continue
            pending[file_id] = None
            store.put(file_id, update.attr_dict, path=update.path)
        for file_id, old in before.items():
            if old is None or file_id in pending:
                continue
            old_keys, old_keywords = old   # deleted: every pre-batch key goes
            for index in keyword:
                for token in old_keywords:
                    index.remove(token, file_id)
            for (index, _, _), key in zip(keyed, old_keys):
                if key is not None:
                    index.remove(key, file_id)
        entries: List[Tuple[Dict[str, Any], Iterable[str]]] = []
        tokens: List[Tuple[str, int]] = []
        for file_id in pending:
            attrs = store.attrs(file_id)
            keywords = store.keywords(file_id)
            old = before[file_id]
            if old is None:
                added = keywords
                for _, key_of, pairs in keyed:
                    key = key_of(attrs)
                    if key is not None:
                        pairs.append((key, file_id))
            else:
                old_keys, old_keywords = old
                added = keywords - old_keywords
                if keyword:
                    for token in old_keywords - keywords:
                        for index in keyword:
                            index.remove(token, file_id)
                for (index, key_of, pairs), old_key in zip(keyed, old_keys):
                    key = key_of(attrs)
                    if _same_key(old_key, key):
                        continue
                    if old_key is not None:
                        index.remove(old_key, file_id)
                    if key is not None:
                        pairs.append((key, file_id))
            if keyword:
                tokens.extend((token, file_id) for token in added)
            entries.append((attrs, keywords if rebuilt else added))
        self.summary.observe_batch(entries)
        batches = [(index, tokens) for index in keyword]
        batches += [(index, pairs) for index, _, pairs in keyed]
        for index, pairs in batches:
            if not pairs:
                continue
            bulk = getattr(index, "bulk_insert", None)
            if bulk is not None:
                bulk(pairs)
            else:
                for key, file_id in pairs:
                    index.insert(key, file_id)

    @property
    def file_count(self) -> int:
        """Files this replica currently indexes."""
        return len(self.store)


@dataclass
class PrimaryReplState:
    """What a primary keeps per replicated partition it owns (RF > 1).

    ``acked`` maps a follower to the highest sequence it confirmed
    applying; ``-1`` marks a follower assigned but not yet installed
    (the catch-up path bootstraps it with a snapshot first).  The log
    keeps only the records above the lowest installed ack
    (:meth:`IndexNode._ack`).
    """

    repl_epoch: int = 1
    log: ReplicationLog = field(default_factory=ReplicationLog)
    followers: Tuple[str, ...] = ()
    acked: Dict[str, int] = field(default_factory=dict)
    # ``(applied_seq, file_count)`` this node answered when a promotion
    # at ``repl_epoch`` made it the primary; None when it became primary
    # any other way.  A duplicated ``promote_replica`` gets it again.
    promoted: Optional[Tuple[int, int]] = None


@dataclass
class FollowerState:
    """An in-memory follower replica of a partition primaried elsewhere.

    Purely volatile: a follower crash loses it (the primary re-installs
    on catch-up) and it never counts toward the node's owned replicas —
    ownership, heartbeat sizes, and chaos presence checks all ignore it.
    """

    primary: str
    repl_epoch: int
    replica: AcgReplica
    applied_seq: int = 0
    last_apply_t: float = 0.0


class IndexNode:
    """One Propeller Index Node."""

    def __init__(self, name: str, machine: Machine) -> None:
        self.name = name
        self.machine = machine
        # Log appends are absorbed by the drive's write-back cache (the
        # testbed's Barracuda has 32 MB of it), so they pay bandwidth but
        # not a head seek even when interleaved with index I/O.  A
        # dedicated DiskDevice keeps the log's sequential stream separate
        # from the index pages' random stream on the shared clock.
        from repro.sim.disk import DiskDevice

        self._log_device = DiskDevice(machine.clock, machine.disk.model)
        self.wal = WriteAheadLog(self._log_device)
        # Checkpoint/adoption I/O goes to *shared storage* (Figure 5), a
        # different set of spindles than the node's local index disk — so
        # it gets its own device and never steals the local head.
        self._shared_device = DiskDevice(machine.clock, machine.disk.model)
        # Residency model: an ACG's serialized indices are loaded whole
        # (one seek + a sequential transfer) the first time they are
        # touched and stay in RAM until evicted LRU when the node's share
        # of indices outgrows its memory.  This is the page-fault
        # behaviour behind Table IV's super-linear scaling knee.
        self._resident: "OrderedDict[int, int]" = OrderedDict()
        self._resident_bytes = 0
        # Shared storage (attached by the service): indices and ACGs are
        # checkpointed here as regular files, and failover restores from
        # here (Section IV).
        self.shared_vfs = None
        self.cache = IndexCache(self._commit_cached)
        self.tracer = NULL_TRACER
        self.freshness = NULL_FRESHNESS
        # Cluster event journal (lifecycle, fences, deposals); wired by
        # the deployment, inert by default.
        self.journal = NULL_JOURNAL
        self.replicas: Dict[int, AcgReplica] = {}
        self._global_specs: Dict[str, IndexSpec] = {}
        # Monotonic replica-incarnation counter: every replica this node
        # ever creates gets a distinct incarnation, making commit
        # watermarks identity-scoped (see AcgReplica.__init__).
        self._next_incarnation = 0
        self._prepared = PreparedCache(_PREPARED_CAP)
        # No answers are kept here (the client holds them, validated by
        # the watermark fence); perf/layers.py still reads these two.
        self.result_cache_hits = 0
        self.result_cache_misses = 0
        # Prune-validation outcomes (client-requested skips this node
        # confirmed vs. had to search anyway).
        self.prunes_validated = 0
        self.prune_fallbacks = 0
        # Crash-consistency bookkeeping: when this node last persisted
        # its ACGs to shared storage (failover restores that snapshot),
        # and how many WAL records recovery has had to drop at torn or
        # corrupt tails over the node's lifetime.
        self.last_checkpoint_t: float = 0.0
        # Checkpoints that wrote a replica's remembered segment instead
        # of encoding it again (AcgReplica.segment).
        self.checkpoint_reuses = 0
        self.wal_replay_dropped_total = 0
        self.wal_replay_skipped_total = 0
        # Routing-epoch state.  ``route_epoch_seen`` is the newest epoch
        # the Master has told this node about (ownership grants and
        # migration flips); it is echoed in NACKs and search replies so
        # stale clients notice.  ``handoff_intents`` maps an ACG this
        # node transferred out (but has not yet been told to drop) to the
        # migration target: while the intent stands the node *forwards*
        # updates there instead of applying them, and WAL replay skips
        # the ACG's records.  The intent is durable — it survives a crash
        # exactly like the replicas do — which is what makes a migration
        # racing a source crash safe.
        self.route_epoch_seen = 0
        self.handoff_intents: Dict[int, str] = {}
        # Per ACG, the routing epoch of the last split that cut files
        # out of it: a request routed by an older table may name a file
        # that now lives in the other half, so the route fence refuses
        # it.  Durable like the intents.
        self.reshape_epochs: Dict[int, int] = {}
        # ACGs this node migrated away and dropped: WAL replay must skip
        # their records (resurrecting them would double-host data the new
        # owner serves).  Durable like the intents; cleared the moment
        # ownership comes back.
        self.migrated_away: Set[int] = set()
        # Commit watermark per ACG: how many of the WAL's records for the
        # ACG have already been committed to the (disk-backed) store.
        # Replay skips that already-durable prefix — re-applying it is
        # not idempotent when the log's *tail* was torn off: a committed
        # upsert replayed over a committed-then-torn delete would
        # resurrect the deleted file.  Durable like the intents; the
        # bookkeeping rides on the commit's existing write (zero extra
        # simulated cost).
        self._wal_commit_counts: Dict[int, int] = {}
        self.forwarded_updates = 0
        self.stale_route_nacks = 0
        # Updates committed for an ACG while under a handoff intent — the
        # chaos checker asserts this stays zero (no non-owner applies).
        self.nonowner_applied = 0
        # Attached by the service: lets this node forward updates during
        # a migration's dual-ownership window.
        self.rpc = None
        # Tiered storage (service-wide knob; see PropellerService
        # ``set_tiering``).  Off by default: the freeze driver, the
        # frozen search path, and every cold-tier charge are gated on
        # ``tiering``, so the default path is byte-identical to the
        # non-tiered node.  ``object_store`` is attached by the service;
        # ``frozen`` maps ACG id → the RAM-resident record of its cold
        # segment (summary sidecar + sizes); the live replica stays in
        # ``replicas`` as the durable backing (analogous to the disk
        # copy in the residency model) but leaves the ``_resident``
        # budget, which is what flattens the paging knee.
        self.tiering = False
        self.object_store = None
        self.tier_policy = TierPolicy()
        self.segment_cache = SegmentCache(machine.spec.ram_bytes)
        self.frozen: Dict[int, FrozenPartition] = {}
        # Per-ACG last search/update time — the heat stat the freeze
        # policy reads.  Pure bookkeeping: no simulated cost.
        self._acg_last_access: Dict[int, float] = {}
        self.tier_freezes = 0
        self.tier_thaws = 0
        self.tier_hydrations = 0
        self.tier_rows_decoded = 0
        self.tier_postings_decoded = 0
        self.tier_fallbacks = 0
        self.tier_summary_prunes = 0
        self.tier_repairs = 0
        # Metrics registry (attached by the service; None when the node
        # runs bare in tests).  Observations are bookkeeping only — they
        # charge no simulated time.
        self.registry = None
        # Replication (RF > 1).  ``repl`` holds per-partition primary
        # state (log + follower ack map) for partitions this node owns;
        # ``followers`` holds the in-memory follower replicas it keeps
        # for partitions primaried elsewhere.  Both empty at RF=1, so
        # replication costs nothing when it is off.
        self.repl: Dict[int, PrimaryReplState] = {}
        self.followers: Dict[int, FollowerState] = {}
        self.repl_streamed = 0
        self.repl_catchups = 0
        # Times this node noticed it was deposed as a partition's primary
        # (a follower rejected its stream/install with a newer epoch).
        self.repl_deposed = 0
        # Master-term fencing: the newest master term any stamped RPC has
        # carried, and how many stale-term RPCs this node rejected.
        self.master_term_seen = 0
        self.master_fences = 0
        self.endpoint = RpcEndpoint(name)
        serve(self.endpoint, self, INDEX_NODE)

    # -- admission: the stamps of repro.cluster.rpcs, one function per kind ----

    def _fence_term(self, term: int, rpc_name: str) -> None:
        """The ``term`` fence: reject an RPC stamped with a master term
        this node has seen superseded — a deposed-but-alive Master must
        not mutate cluster state — and adopt newer terms.  ``term`` 0
        means unstamped."""
        if term == 0:
            return
        if term < self.master_term_seen:
            self.master_fences += 1
            self.journal.emit("master.fence", node=self.name, rpc=rpc_name,
                              stale_term=term, term=self.master_term_seen)
            raise StaleMasterTerm(
                f"{self.name}: {rpc_name} from master term {term} behind "
                f"seen term {self.master_term_seen}",
                term=self.master_term_seen)
        self.master_term_seen = term

    def _route_ok(self, acg_id: int, epoch: int = 0,
                  relay: bool = False) -> bool:
        """The ``route`` fence: whether a request for ``acg_id`` routed by
        a table at ``epoch`` may be served here.  The node owns the
        partition — or, for a batch it can ``relay``, handed it off and
        forwards it — and no split since ``epoch`` moved files out of it.
        Epoch 0 is unstamped: ownership alone."""
        if 0 < epoch < self.reshape_epochs.get(acg_id, 0):
            return False
        return self.owns(acg_id) or (relay and self.rpc is not None
                                     and acg_id in self.handoff_intents)

    def _fence_repl(self, rpc: str, acg_id: int, repl_epoch: int,
                    **detail: Any) -> None:
        """The ``repl`` fence: reject a stream or install stamped with a
        replication generation this node has seen superseded — below its
        follower copy's, or at or below one at which it primaries the
        partition itself.  A deposed primary must neither rewind a
        follower nor overwrite the current primary."""
        follower, mine = self.followers.get(acg_id), self.repl.get(acg_id)
        if follower is not None and repl_epoch < follower.repl_epoch:
            seen = follower.repl_epoch
        elif mine is not None and repl_epoch <= mine.repl_epoch:
            seen, detail["reason"] = mine.repl_epoch, "own_primary_claim"
        else:
            return
        self.journal.emit("repl.fence", node=self.name, acg_id=acg_id,
                          repl_epoch=seen, stale_epoch=repl_epoch, rpc=rpc,
                          **detail)
        raise StaleReplEpoch(f"{self.name}: {rpc} for ACG {acg_id} at repl "
                             f"epoch {repl_epoch}, seen {seen}")

    def _skip_ok(self, acg_id: int, watermark: Watermark) -> bool:
        """The ``watermark`` fence: a client's skip — a summary's proof
        that the answer is empty, or an answer it holds — holds only
        while nothing is pending for the partition and its commit
        watermark is exactly the one the skip was decided on.  Anything
        else — a stale summary, a held answer a commit has moved past,
        pending updates, a recreated replica — fails open to a searched
        leg, so pruning cannot lose or resurrect a result."""
        ok = (not self.cache.pending_ops(acg_id)
              and tuple(watermark) == self.watermark(acg_id))
        if ok:
            self.prunes_validated += 1
        else:
            self.prune_fallbacks += 1
        return ok

    def set_tracer(self, tracer) -> None:
        """Thread one tracer through this node's cache and devices."""
        self.tracer = tracer
        self.cache.tracer = tracer
        self.machine.disk.tracer = tracer
        self.machine.page_cache.tracer = tracer
        self._log_device.tracer = tracer
        self._shared_device.tracer = tracer

    # -- replica management -----------------------------------------------------

    def replica(self, acg_id: int, create: bool = False) -> AcgReplica:
        """Fetch (or lazily create) this node's replica of one ACG."""
        replica = self.replicas.get(acg_id)
        if replica is None:
            if not create:
                raise UnknownAcg(f"{self.name} does not host ACG {acg_id}")
            replica = self._incarnate(AcgReplica(acg_id, self.machine))
            self.replicas[acg_id] = replica
            # Hosting again: the ACG's migrated-away tombstone (if any)
            # no longer applies.
            self.migrated_away.discard(acg_id)
        return replica

    def _incarnate(self, replica: AcgReplica) -> AcgReplica:
        """Give a replica this node is about to serve a fresh watermark
        identity (the next incarnation) and every global index, the
        missing ones backfilled from its rows."""
        self._next_incarnation += 1
        replica.incarnation = self._next_incarnation
        for spec in self._global_specs.values():
            if spec.name not in replica.specs:
                self._backfill_index(replica, spec)
        return replica

    # -- residency ---------------------------------------------------------

    def _ensure_resident(self, acg_id: int) -> None:
        """Load an ACG's serialized indices into RAM if they are not
        there (one seek plus a sequential transfer), evicting LRU ACGs
        when the node's memory budget is exceeded."""
        replica = self.replicas.get(acg_id)
        if replica is None:
            return
        nbytes = replica.resident_bytes()
        if acg_id in self._resident:
            self._resident_bytes += nbytes - self._resident[acg_id]
            self._resident[acg_id] = nbytes
            self._resident.move_to_end(acg_id)
            self.machine.clock.charge(1e-6)
            return
        self.machine.disk.reset_head()
        self.machine.disk.read((acg_id % 4096) << 24, nbytes)
        self._resident[acg_id] = nbytes
        self._resident_bytes += nbytes
        while (self._resident_bytes > self.machine.spec.ram_bytes
               and len(self._resident) > 1):
            victim, vbytes = self._resident.popitem(last=False)
            self._resident_bytes -= vbytes

    def is_resident(self, acg_id: int) -> bool:
        """Whether an ACG's indices are currently loaded in RAM."""
        return acg_id in self._resident

    def drop_resident(self) -> None:
        """Cold-start: forget every loaded ACG (cf. dropping page caches).

        Cached segments are part of the same cold-start surface, so the
        segment cache empties too (a no-op with tiering off)."""
        self._resident.clear()
        self._resident_bytes = 0
        self.segment_cache.clear()

    def drop_caches(self) -> None:
        """Memory-pressure eviction of the node-local volatile cache of
        segment views.  The next search against a frozen partition must
        go back to the cold tier — the path the chaos harness's
        cache-pressure op exists to exercise.  Resident index bodies
        stay loaded (that cold-start surface belongs to
        :meth:`drop_resident`)."""
        self.segment_cache.clear()

    def handle_create_index(self, spec: IndexSpec) -> None:
        """Register a user-defined index; existing replicas backfill."""
        self._global_specs[spec.name] = spec
        for replica in self.replicas.values():
            self._backfill_index(replica, spec)
        for follower in self.followers.values():
            self._backfill_index(follower.replica, spec)

    @staticmethod
    def _backfill_index(replica: AcgReplica, spec: IndexSpec) -> None:
        index = replica.ensure_index(spec)
        key_of = None if _is_keyword_index(spec) else _key_of(spec)
        for file_id in replica.store.file_ids():
            if key_of is None:
                for token in replica.store.keywords(file_id):
                    index.insert(token, file_id)
                continue
            key = key_of(replica.store.attrs(file_id))
            if key is not None:
                index.insert(key, file_id)

    # -- routing-epoch ownership ---------------------------------------------------

    def owns(self, acg_id: int) -> bool:
        """Whether this node currently owns an ACG for epoch-stamped
        traffic: it hosts a replica and has not handed it off."""
        return acg_id in self.replicas and acg_id not in self.handoff_intents

    def watermark(self, acg_id: int) -> Watermark:
        """The commit watermark of one hosted replica: (node, replica
        incarnation, applied-update count).  Identity-scoped, so a
        watermark taken from a previous life of the ACG — on this node
        or any other — can never equal the current one."""
        replica = self.replicas[acg_id]
        return (self.name, replica.incarnation, replica.applied)

    def handle_own_partition(self, acg_id: int, epoch: int) -> None:
        """Master grant: this node owns ``acg_id`` as of ``epoch``.

        Creates an empty replica shell if needed — the only way a
        partition with no content yet comes to be hosted: no update,
        search or ACG fragment ever creates one."""
        self._clear_stale_handoff(acg_id)
        self.route_epoch_seen = max(self.route_epoch_seen, epoch)
        self.replica(acg_id, create=True)

    def _clear_stale_handoff(self, acg_id: int) -> None:
        """Ownership is coming (back) to this node: a replica still held
        behind an old handoff intent is stale debris — drop it so the
        incoming copy starts clean."""
        if acg_id in self.handoff_intents:
            self.handoff_intents.pop(acg_id, None)
            self._log_device.append(64)
            self.handle_drop_partition(acg_id)

    def _forward_updates(self, batch: UpdateBatch) -> int:
        """Dual-ownership window: relay one batch to the migration target
        (an envelope of one).

        A target that does not host the ACG either (an aborted
        migration's debris) NACKs like any other node instead of
        silently absorbing updates the Master still routes here."""
        target = self.handoff_intents[batch.acg_id]
        self.forwarded_updates += len(batch)
        (outcome,) = self.rpc.call(target, "index_update", (batch,),
                                   request_bytes=batch.wire_bytes())
        return outcome.unwrap()

    # -- update path --------------------------------------------------------------

    def handle_index_update(self, batches: Sequence[UpdateBatch]
                            ) -> Tuple[CallOutcome, ...]:
        """One node envelope — every batch a client flush has for this
        node — through WAL + cache; returns one outcome per batch, in
        order: the ack, or the error that partition alone met.

        Each batch takes the per-partition step (:meth:`_park`), so one
        stale partition NACKs with :class:`StaleRoute` while its
        neighbours are parked and acked.  The envelope then pays **one
        fsync** for all its WAL frames and streams the replicated
        partitions' log suffixes with one ``replicate_apply`` per
        follower node, distinct followers in flight at once
        (:meth:`_replicate`) — nothing is acked before both.

        A batch is the unit all the way down: one WAL batch frame, one
        cache-insert charge (full price once plus a marginal cost per
        rider), and — on a replicated partition — one replication-log
        record, so primaries, followers and hedged reads advance their
        watermarks at identical batch boundaries and a partially-visible
        batch is impossible."""
        outcomes: List[CallOutcome] = []
        parked: List[UpdateBatch] = []
        for batch in batches:
            forward = batch.acg_id in self.handoff_intents
            outcome = CallOutcome.capture(
                lambda: self._park(batch), (StaleRoute,) + DEGRADABLE_ERRORS)
            outcomes.append(outcome)
            if outcome.ok and not forward:
                parked.append(batch)
        parked_updates = sum(len(batch) for batch in parked)
        if parked_updates:
            self.wal.sync()
            if self.registry is not None:
                self.registry.histogram("update.batch_size", unit="updates")\
                    .observe(parked_updates)
        self._replicate(dict.fromkeys(batch.acg_id for batch in parked))
        return tuple(outcomes)

    def _park(self, batch: UpdateBatch) -> int:
        """The per-partition step of an envelope: the route fence, then
        thaw, WAL frame (fsync left to the envelope), cache park,
        replication-log append.  Returns the partition's ack.

        A batch the route fence refuses — a partition this node does not
        own, or one split since the batch's epoch — raises
        :class:`StaleRoute` so the client refreshes its route cache.  A
        handed-off partition's batch is forwarded to the migration
        target: the old owner must never apply."""
        acg_id, updates = batch.acg_id, batch.updates
        if not self._route_ok(acg_id, batch.epoch, relay=True):
            self.stale_route_nacks += len(updates)
            raise StaleRoute(f"{self.name} does not own ACG {acg_id} at "
                             f"epoch {batch.epoch}",
                             epoch=self.route_epoch_seen)
        if acg_id in self.handoff_intents:
            return self._forward_updates(batch)
        if acg_id in self.frozen:
            # Writes thaw: the partition returns to the live B+tree/hash
            # path before the update takes the ordinary WAL→cache route.
            self._thaw(acg_id, reason="write")
        now = self.machine.clock.now()
        self._acg_last_access[acg_id] = now
        if updates:
            self.wal.append_batch(acg_id, tuple(
                (acg_id, u.file_id, u.op.value, u.path, u.attrs)
                for u in updates), sync=False)
            self.machine.compute(
                _CACHE_ADD_OPS + _CACHE_ADD_BATCHED_OPS * (len(updates) - 1))
            for update in updates:
                self.cache.add(acg_id, update, now)
        state = self.repl.get(acg_id)
        if state is None:
            return len(updates)
        # Replicated partition: sequence the batch in the replication
        # log; the envelope streams it to installed followers before
        # acking.
        if updates:
            state.log.append(tuple(updates))
        return UpdateAck(len(updates), acg_id=acg_id, seq=state.log.last_seq,
                         repl_epoch=state.repl_epoch)

    def _commit_updates(self, acg_id: int, updates: List[IndexUpdate]) -> None:
        from repro.errors import DiskIOError

        if acg_id in self.handoff_intents:
            self.nonowner_applied += len(updates)
        # Advance the durable commit watermark: these records' effects
        # now live in the store, so a crash-replay must not redo them.
        self._wal_commit_counts[acg_id] = (
            self._wal_commit_counts.get(acg_id, 0) + len(updates))
        replica = self.replica(acg_id, create=True)
        try:
            self._ensure_resident(acg_id)
        except DiskIOError:
            # An injected read error while paging the ACG in: the commit
            # itself must not be lost (the updates are acknowledged), so
            # absorb the fault — the store is authoritative; residency is
            # a cost-model event, retried on the next touch.
            pass
        replica.apply_batch(updates)
        # Commit is the moment an update becomes search-visible: resolve
        # any freshness stamps now (bookkeeping only, zero simulated cost).
        now = self.machine.clock.now()
        for update in updates:
            self.freshness.visible(self.name, update.file_id, now)

    def _commit_cached(self, acg_id: int, updates: List[IndexUpdate]) -> None:
        """The cache's commit: :meth:`_commit_updates`, then reclaim the
        WAL if that emptied the cache.  Whatever drained it — a timeout,
        a search, a flush — every record in the log is now committed to
        the disk-backed replicas.  (Crash replay commits directly and
        truncates only once the whole log replayed: a replay that stops
        at a damaged frame leaves the log, and its evidence, in place.)"""
        self._commit_updates(acg_id, updates)
        if not len(self.cache):
            self._truncate_wal()

    def tick(self) -> int:
        """Commit timed-out cache buckets (called by the event loop),
        then run the replication catch-up (:meth:`catch_up`).

        With tiering on, also runs the freeze policy: partitions cold
        past the policy's age threshold are serialized to the object
        store.  The driver is fully gated on ``tiering`` so the default
        path charges nothing extra."""
        committed = self.cache.commit_due(self.machine.clock.now())
        if self.tiering and self.object_store is not None:
            self._freeze_cold(self.machine.clock.now())
        self.catch_up()
        return committed

    def _truncate_wal(self) -> None:
        """Discard the WAL once nothing in it is still pending; the
        commit watermarks restart with the empty log."""
        self.wal.truncate()
        self._wal_commit_counts.clear()

    # -- tiered storage: freeze / thaw / hydrate ----------------------------------------

    def _freeze_cold(self, now: float) -> None:
        """Freeze every owned partition the tier policy calls cold.

        Eligibility: owned (no handoff intent), not already frozen,
        nothing pending in the index cache (freezing under pending
        updates would immediately thaw), and cold/big enough per
        :class:`~repro.cluster.segments.TierPolicy`.
        """
        for acg_id in sorted(self.replicas):
            if acg_id in self.frozen or not self.owns(acg_id):
                continue
            if self.cache.pending_ops(acg_id):
                continue
            replica = self.replicas[acg_id]
            last = self._acg_last_access.get(acg_id, 0.0)
            if not self.tier_policy.should_freeze(
                    now, last, replica.store.estimated_bytes()):
                continue
            self._freeze_one(acg_id, replica, now)

    def _freeze_one(self, acg_id: int, replica: AcgReplica, now: float) -> None:
        """Serialize one partition to the cold tier and mark it frozen.

        The live replica stays in ``replicas`` (ownership, watermarks,
        heartbeat sizes, locate probes and the replication stream all
        keep working) but leaves the RAM residency budget — only the
        small summary sidecar stays resident.
        """
        self.machine.compute(_FREEZE_OPS_PER_FILE * max(1, replica.file_count))
        data, _ = replica.segment(self.name, dump_segment, fresh=True)
        key = segment_key(self.name, acg_id)
        self.object_store.put(key, data)
        watermark = self.watermark(acg_id)
        snapshot = replica.summary.snapshot(
            acg_id, watermark, dirty=False, file_count=replica.file_count)
        self.frozen[acg_id] = FrozenPartition(
            acg_id=acg_id, key=key, serialized_bytes=len(data),
            hydrated_bytes=256 + replica.store.estimated_bytes(),
            snapshot=snapshot, frozen_at=now, watermark=watermark)
        if acg_id in self._resident:
            self._resident_bytes -= self._resident.pop(acg_id)
        self.tier_freezes += 1
        self.journal.emit("tier.freeze", node=self.name, acg_id=acg_id,
                          segment_bytes=len(data))

    def _thaw(self, acg_id: int, reason: str) -> None:
        """Return a frozen partition to the live path (first write, or
        an operation that must mutate the replica)."""
        frozen = self.frozen.pop(acg_id, None)
        if frozen is None:
            return
        self.segment_cache.invalidate(frozen.key)
        if self.object_store is not None:
            self.object_store.delete(frozen.key)
        self.tier_thaws += 1
        self.journal.emit("tier.thaw", node=self.name, acg_id=acg_id,
                          reason=reason)

    def _hydrate(self, acg_id: int, frozen: FrozenPartition):
        """Fetch + validate one segment from the cold tier (cache miss
        path); nothing is decoded until a search reads it.

        Returns the view, or None when the cold tier cannot serve it —
        one retry for a transient object-store error, a repair (re-dump
        from the live backing replica) for a corrupt segment; either way
        the caller falls back to the replica.
        """
        t0 = self.machine.clock.now()
        with self.tracer.span("hydrate", node=self.name, acg=acg_id) as span:
            try:
                try:
                    data = self.object_store.get(frozen.key)
                except ObjectStoreError:
                    # One retry: cold-tier reads are cheap to re-issue
                    # and transient errors are the common injected case.
                    data = self.object_store.get(frozen.key)
                view = load_segment(data)
            except SegmentCorruption:
                # Torn/corrupt segment: hydrate-from-replica.  The live
                # backing replica is authoritative — re-dump it so the
                # next hydration reads a good copy, and serve this query
                # from the replica.
                self._repair_segment(acg_id, frozen)
                return None
            except ObjectStoreError:
                return None
            span.set_attribute("segment_bytes", frozen.serialized_bytes)
        self.tier_hydrations += 1
        if self.registry is not None:
            self.registry.histogram("tier.hydration_s", unit="s")\
                .observe(self.machine.clock.now() - t0)
        self.segment_cache.put(frozen.key, view)
        return view

    def _repair_segment(self, acg_id: int, frozen: FrozenPartition) -> None:
        """Overwrite a corrupt segment with a fresh dump of the live
        backing replica (the hydrate-from-replica self-heal)."""
        replica = self.replicas.get(acg_id)
        if replica is None or self.object_store is None:
            return
        self.machine.compute(_FREEZE_OPS_PER_FILE * max(1, replica.file_count))
        self.object_store.put(frozen.key,
                              replica.segment(self.name, dump_segment)[0])
        self.tier_repairs += 1
        self.journal.emit("tier.repair", node=self.name, acg_id=acg_id)

    def frozen_bytes(self) -> int:
        """Serialized bytes this node keeps on the cold tier."""
        return sum(f.serialized_bytes for f in self.frozen.values())

    # -- search path ------------------------------------------------------------------

    def handle_locate_file(self, file_id: int) -> Optional[int]:
        """Presence probe: which owned ACG holds ``file_id``, if any.

        Serves clients whose file routes were evicted by a full
        route-table refresh — the Master does not track client-placed
        membership, so without this probe a DELETE for such a file has
        nowhere correct to go.  Handed-off replicas are excluded: the
        migration target answers for those."""
        for acg_id in sorted(self.replicas):
            if not self._route_ok(acg_id):
                continue
            if file_id in self.replicas[acg_id].store:
                return acg_id
            # A just-indexed file can still sit in the pending cache;
            # the last buffered op for the file decides its presence.
            last_op = None
            for update in self.cache.pending_ops(acg_id):
                if update.file_id == file_id:
                    last_op = update.op
            if last_op is UpdateOp.UPSERT:
                return acg_id
        return None

    def _prepare(self, predicate: Union[Predicate, PreparedQuery]
                 ) -> PreparedQuery:
        """This node's prepared form of a predicate off the wire: once
        per request, and kept between requests (what it compiles for one
        ``now`` a time-dependent predicate recompiles for the next)."""
        if isinstance(predicate, PreparedQuery):
            return predicate
        return self._prepared.get(predicate)

    def _search_one(self, acg_id: int,
                    predicate: Union[Predicate, PreparedQuery],
                    index_names: Optional[Sequence[str]]) -> SearchResult:
        query = self._prepare(predicate)
        now = self.machine.clock.now()
        self._acg_last_access[acg_id] = now
        self.cache.commit_for_search(acg_id)
        if acg_id in self.frozen:
            return self._search_frozen(acg_id, query, index_names, now)
        return self._search_live_body(acg_id, query, index_names, now)

    @staticmethod
    def _plans(replica: "AcgReplica", query: PreparedQuery,
               index_names: Optional[Sequence[str]],
               now: float) -> List[Plan]:
        """The access plans over the replica's (named) indexes."""
        specs = [replica.specs[n] for n in (index_names or replica.specs)
                 if n in replica.specs]
        return query.plans(specs, now)

    def _search_live_body(self, acg_id: int, query: PreparedQuery,
                          index_names: Optional[Sequence[str]],
                          now: float) -> SearchResult:
        """The live (B+tree/hash) execution body of one search leg."""
        self._page_in(acg_id)
        replica = self.replicas[acg_id]
        with self.tracer.span("plan", node=self.name, acg=acg_id) as span:
            plans = self._plans(replica, query, index_names, now)
            if self.tracer.enabled:
                span.set_attribute(
                    "access_path", "; ".join(p.describe() for p in plans))
        with self.tracer.span("index_scan", node=self.name, acg=acg_id) as span:
            result = self._run_leg(
                acg_id, replica.store,
                lambda: execute_plans(plans, query, replica.indexes,
                                      replica.store, now))
            span.set_attribute("matches", len(result.file_ids))
        return result

    def _page_in(self, acg_id: int) -> None:
        """A live leg's first step: the ACG's indices into RAM."""
        with self.tracer.span("page_faults", node=self.name, acg=acg_id) as span:
            span.set_attribute("resident", self.is_resident(acg_id))
            self._ensure_resident(acg_id)

    def _run_leg(self, acg_id: int,
                 store: Union[AttributeStore, SegmentView],
                 match: Callable[[], Set[int]]) -> SearchResult:
        """The costed core every search leg shares (live, frozen,
        follower): charge the scan setup, run ``match`` for the exact
        file ids, charge materializing them — bitmap postings
        extract matches word-at-a-time, so one examine charge covers
        ``_VECTOR_WIDTH`` of them (ceil: a partial word still costs a
        word) — and answer with the sorted paths from ``store`` (its
        ``len`` and ``paths`` are all a leg reads: a live attribute
        store, or a frozen partition's segment view)."""
        self.machine.compute(_EXAMINE_OPS * max(1, len(store) // 64))
        file_ids = match()
        self.machine.compute(
            _EXAMINE_OPS * ((len(file_ids) + _VECTOR_WIDTH - 1) // _VECTOR_WIDTH))
        return SearchResult(node=self.name, acg_id=acg_id,
                            file_ids=frozenset(file_ids),
                            paths=tuple(store.paths(file_ids)))

    def _search_frozen(self, acg_id: int, query: PreparedQuery,
                       index_names: Optional[Sequence[str]],
                       now: float) -> SearchResult:
        """Execute one search leg against a frozen partition.

        Order of consultation: (1) the resident summary sidecar — a
        provably-empty answer never touches the cold tier; (2) the
        node-local segment cache; (3) hydrate from the object store on a
        miss.  If the cold tier cannot serve the segment (persistent
        read errors, corruption) the leg falls back to the live backing
        replica — answers degrade to slower, never to wrong.
        """
        frozen = self.frozen[acg_id]
        self.machine.compute(_EXAMINE_OPS)
        if not summary_may_match(frozen.snapshot, query, now):
            # Zone maps / bloom say no possible match: byte-identical to
            # the empty answer a full scan would produce (fail-open
            # summaries only ever return False when provably empty).
            self.tier_summary_prunes += 1
            return SearchResult(node=self.name, acg_id=acg_id,
                                file_ids=frozenset(), paths=())
        view = self.segment_cache.get(frozen.key)
        if view is None:
            view = self._hydrate(acg_id, frozen)
        if view is not None:
            rows, postings = view.rows_decoded, view.postings_decoded
            try:
                with self.tracer.span("segment_scan", node=self.name,
                                      acg=acg_id) as span:
                    result = self._run_leg(acg_id, view,
                                           lambda: view.search(query, now))
                    span.set_attribute("matches", len(result.file_ids))
            except SegmentCorruption:
                # CRC-valid but inconsistent inside, found while
                # decoding: the same self-heal as a hydrate-time failure.
                self.segment_cache.invalidate(frozen.key)
                self._repair_segment(acg_id, frozen)
            else:
                # The parse charge follows the work: rows this search
                # had to decode, none for the ones it found memoised.
                decoded = view.rows_decoded - rows
                self.tier_rows_decoded += decoded
                self.tier_postings_decoded += view.postings_decoded - postings
                self.machine.compute(_HYDRATE_OPS_PER_FILE * decoded)
                self.segment_cache.recharge()
                return result
        # Cold tier unavailable: serve from the live backing replica
        # (still frozen — the next leg tries the cold tier again).
        self.tier_fallbacks += 1
        return self._search_live_body(acg_id, query, index_names, now)

    def handle_search(self, acg_ids: Sequence[int], predicate: Predicate,
                      index_names: Optional[Sequence[str]] = None,
                      epoch: int = 0,
                      pruned: Optional[Dict[int, Watermark]] = None,
                      updates: Sequence[UpdateBatch] = ()) -> SearchReply:
        """Search the given ACGs; commits their pending updates first.

        ``updates`` is the client's pending envelope for this node,
        riding the leg: it goes through :meth:`handle_index_update`
        whole *before* anything below runs — so a skip over a partition
        it touched fails open — and its per-batch outcomes come back as
        ``update_outcomes``.

        The :class:`SearchReply` *names* the requested ACGs the route
        fence refuses (``not_owned``): not owned here, or split since
        ``epoch``, the caller's routing epoch.  It carries the node's own
        routing epoch, so a stale caller notices.

        ``pruned`` maps ACG ids the client wants to *skip* to the
        watermark its skip decision was based on — a summary's (the
        answer is empty) or a stamp of this node's earlier answer the
        client holds (the answer is that one); the watermark fence
        (:meth:`_skip_ok`) honours a skip only when it is provably safe,
        else the partition is searched like a normal leg.  The node,
        which has ground truth, gets the last word, so pruning cannot
        produce a false negative.  Every answer searched here is stamped
        (``stamps``) unless the predicate is time-dependent.

        The predicate is prepared once for the whole request: every
        partition below shares its canonical form, plans and matcher.
        """
        query = self._prepare(predicate)
        update_outcomes: Tuple[CallOutcome, ...] = ()
        if updates:
            with self.tracer.span("carry", node=self.name,
                                  batches=len(updates)):
                update_outcomes = self.handle_index_update(updates)
        reply = SearchReply(node=self.name, epoch=self.route_epoch_seen,
                            update_outcomes=update_outcomes)
        not_owned: List[int] = []
        pruned_ok: List[int] = []
        stamps: List[Tuple[int, Watermark]] = []
        legs = sorted((pruned or {}).items()) + [(a, None) for a in acg_ids]
        for acg_id, watermark in legs:
            if not self._route_ok(acg_id, epoch):
                not_owned.append(acg_id)
            elif watermark is not None and self._skip_ok(acg_id, watermark):
                pruned_ok.append(acg_id)
            else:
                reply.results.append(
                    self._search_one(acg_id, query, index_names))
                if not query.time_dependent:
                    # After the leg's commit-on-search: every update
                    # acknowledged before it is in the answer.
                    stamps.append((acg_id, self.watermark(acg_id)))
        if not_owned:
            self.stale_route_nacks += len(not_owned)
            reply.not_owned = tuple(sorted(not_owned))
        reply.pruned_ok = tuple(sorted(pruned_ok))
        reply.stamps = tuple(stamps)
        return reply

    def handle_explain(self, acg_ids: Sequence[int], predicate: Predicate,
                       index_names: Optional[Sequence[str]] = None
                       ) -> List[Tuple[int, List[str]]]:
        """EXPLAIN: the access path(s) each ACG would use for a query,
        without executing it (and without forcing cache commits).

        Behind the same route fence as the search path: a handed-off
        (migrated-away) replica must not report plans for an ACG this
        node no longer answers for.  An index name this node was never
        told about (``create_index`` reaches every node) names nothing:
        :class:`~repro.errors.UnknownIndexName`."""
        for name in index_names or ():
            if name not in self._global_specs:
                raise UnknownIndexName(name)
        query = self._prepare(predicate)
        now = self.machine.clock.now()
        return [(acg_id, [plan.describe() for plan in self._plans(
                    self.replicas[acg_id], query, index_names, now)])
                for acg_id in acg_ids if self._route_ok(acg_id)]

    # -- ACG maintenance -------------------------------------------------------------------

    def handle_flush_acg(self, fragments: Sequence[
            Tuple[int, Sequence[Tuple[int, int, int]]]]) -> None:
        """Merge one client flush's ACG fragments for this node —
        ``(acg_id, records)`` per partition (weak consistency — no WAL:
        a fragment the route fence refuses is dropped)."""
        for acg_id, records in fragments:
            if not self._route_ok(acg_id):
                continue
            self.replicas[acg_id].merge_graph(records)
            self.machine.compute(_CACHE_ADD_OPS * max(1, len(records)))

    def handle_compute_split(self, acg_id: int,
                             policy: PartitioningPolicy) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Run the background balanced-minimal-cut split for one ACG."""
        self.cache.commit_for_search(acg_id)
        replica = self.replica(acg_id)
        files = set(replica.store.file_ids())
        halves = split_partition(replica.graph, files, policy)
        if len(halves) == 1:
            halves = [halves[0], set()]
        # METIS-style split cost: roughly linear in edges.
        self.machine.compute(50 * max(1, replica.graph.edge_count))
        return tuple(sorted(halves[0])), tuple(sorted(halves[1]))

    def handle_extract_partition(self, acg_id: int,
                                 file_ids: Optional[Sequence[int]] = None,
                                 epoch: int = 0) -> bytes:
        """Cut ``file_ids`` out of the partition, as a segment for another
        node to install.

        ``file_ids=None`` means *everything this node hosts* for the ACG
        — the Master uses that for merges, where its own file map may
        under-count client-placed files.  ``epoch`` is the routing epoch
        a split bumped the partition to before cutting: from now on the
        route fence refuses a request routed by an older table."""
        self.reshape_epochs[acg_id] = epoch
        self.route_epoch_seen = max(self.route_epoch_seen, epoch)
        # Extraction deletes moved files from the replica — a mutation,
        # so a frozen partition thaws first.
        self._thaw(acg_id, reason="extract")
        self.cache.commit_for_search(acg_id)
        replica = self.replica(acg_id)
        moving = (set(replica.store.file_ids()) if file_ids is None
                  else set(file_ids))
        segment = encode_segment(replica, self.name, file_ids=moving)
        # Removing the moved files from local state is part of migration
        # (a delete also drops the ACG vertex).
        replica.apply_batch([IndexUpdate.delete(file_id)
                             for file_id in sorted(moving)])
        # The deletes above never entered the replication log, so any
        # followers now describe the pre-extraction store.
        self._reset_repl(acg_id)
        return segment

    @staticmethod
    def _install_snapshot(replica: AcgReplica,
                          view: SegmentView) -> Tuple[int, ...]:
        """The one way a parsed segment reaches a replica — empty or not:
        ensure its index specs, merge its ACG records, apply its rows as
        one batch of upserts.  Returns the installed file ids (the
        dump's order, ascending)."""
        for spec in view.specs:
            replica.ensure_index(spec)
        replica.merge_graph(view.acg_records)
        updates = [IndexUpdate.upsert(file_id, attrs, path=path)
                   for file_id, attrs, path in view.rows()]
        replica.apply_batch(updates)
        return tuple(update.file_id for update in updates)

    def handle_install_partition(self, acg_id: int,
                                 segment: bytes) -> Tuple[int, ...]:
        """Install a split, merged or migrated partition's segment under
        ``acg_id`` (the segment's own id is its source's); returns the
        installed file ids."""
        view = decode_segment(segment)
        self._clear_stale_handoff(acg_id)
        # A merge installs into a survivor that may be frozen: a mutation
        # thaws first, or its stale segment and summary keep answering.
        self._thaw(acg_id, reason="install")
        installed = self._install_snapshot(
            self.replica(acg_id, create=True), view)
        # Installed content bypassed the replication log: force followers
        # back through a snapshot bootstrap.
        self._reset_repl(acg_id)
        return installed

    def handle_drop_partition(self, acg_id: int) -> None:
        """Forget a migrated-away ACG entirely."""
        frozen = self.frozen.pop(acg_id, None)
        if frozen is not None:
            self.segment_cache.invalidate(frozen.key)
            if self.object_store is not None:
                self.object_store.delete(frozen.key)
        self._acg_last_access.pop(acg_id, None)
        self.replicas.pop(acg_id, None)
        self.reshape_epochs.pop(acg_id, None)
        self.repl.pop(acg_id, None)
        if acg_id in self._resident:
            self._resident_bytes -= self._resident.pop(acg_id)

    # -- online migration (source/target protocol half) ---------------------------

    def _checkpoint_one(self, replica: AcgReplica,
                        pending: Sequence[IndexUpdate] = ()) -> bytes:
        """Dump one replica's segment, with ``pending`` as its tail, and
        write it to shared storage (when attached); returns the bytes.

        Taken from the live replica, frozen or not (deterministic, no
        cold-tier round trip, immune to injected object faults).  With
        no tail it is :meth:`AcgReplica.segment`: an unchanged replica
        writes its last encoding again, the bytes a fresh encode would
        give, charged as one (``checkpoint_reuses`` counts these)."""
        if pending:
            data = encode_segment(replica, self.name, pending=pending)
        else:
            data, reused = replica.segment(self.name, encode_segment)
            self.checkpoint_reuses += reused
        if self.shared_vfs is not None:
            write_checkpoint(self.shared_vfs, self.name, replica.acg_id, data)
            self._shared_device.reset_head()
            # A live partition's checkpoint models writing its index
            # files and the tail, a frozen one's only the segment
            # (docs/cost-model.md).
            self._shared_device.append(
                len(data) if replica.acg_id in self.frozen
                else replica.resident_bytes()
                + sum(u.wire_bytes() for u in pending))
        return data

    def handle_transfer_out(self, acg_id: int, target: str) -> bytes:
        """Migration step 1 (source side): drain, checkpoint, package —
        and durably record the handoff intent.

        Unlike :meth:`handle_extract_partition` this does **not** delete
        anything: the partition stays queryable here until the Master
        flips routing, and the intent makes sure updates forward to
        ``target`` instead of being applied by a no-longer-owner."""
        self.cache.commit_for_search(acg_id)
        replica = self.replica(acg_id, create=True)
        # A fresh shared checkpoint means a source crash before the flip
        # still fails over with all acknowledged data; the same bytes are
        # the payload.
        segment = self._checkpoint_one(replica)
        self.handoff_intents[acg_id] = target
        # The intent is durable (one small log write): a restart after a
        # crash must keep forwarding and keep WAL replay away from this
        # ACG, or a lost finish_migration would resurrect handed-off data.
        self._log_device.append(64)
        return segment

    def handle_checkpoint_acg(self, acg_id: int) -> None:
        """Persist one ACG to shared storage right now (migration step 2,
        target side: the flip must not outrun durability)."""
        self.cache.commit_for_search(acg_id)
        replica = self.replica(acg_id, create=True)
        if self.shared_vfs is not None:
            self._checkpoint_one(replica)

    def handle_finish_migration(self, acg_id: int) -> None:
        """Migration step 4 (source side): drop the handed-off replica,
        clear the intent, and remove the stale shared checkpoint so a
        later failover cannot adopt outdated data."""
        self.handoff_intents.pop(acg_id, None)
        self.migrated_away.add(acg_id)
        self._log_device.append(64)
        self.handle_drop_partition(acg_id)
        if self.shared_vfs is not None:
            remove_checkpoint(self.shared_vfs, self.name, acg_id)

    def handle_cancel_transfer(self, acg_id: int) -> None:
        """Migration abort (source side): lift the handoff intent — this
        node owns the partition again and resumes applying updates."""
        self.handoff_intents.pop(acg_id, None)
        self._log_device.append(64)

    # -- replication (RF > 1): primary half --------------------------------------------------

    def handle_set_followers(self, acg_id: int, followers: Sequence[str],
                             repl_epoch: int) -> None:
        """Master: this node primaries ``acg_id`` with these followers.

        Idempotent and epoch-fenced: a stale (lower-epoch) assignment is
        ignored so a delayed duplicate cannot resurrect old membership.
        Newly assigned followers start un-installed (``acked == -1``) and
        are bootstrapped by the synchronous catch-up that follows, so a
        quiesced cluster converges in one round.

        A membership-only epoch bump does not restart the log, so a
        retained follower may have nothing to stream — but it must still
        learn the new epoch, or its heartbeats and live
        ``replica_watermark`` answers keep carrying the old one and the
        Master's promotion-viability check (same epoch, caught-up) would
        refuse a genuinely viable replica.  The catch-up therefore sends
        every retained follower an apply (``refresh``), empty when it
        has nothing to stream.
        """
        if acg_id not in self.replicas:
            raise UnknownAcg(f"{self.name} does not host ACG {acg_id}")
        state = self.repl.get(acg_id)
        if state is None:
            state = self.repl[acg_id] = PrimaryReplState(repl_epoch=repl_epoch)
        elif repl_epoch < state.repl_epoch:
            return
        refresh = repl_epoch > state.repl_epoch
        state.repl_epoch = repl_epoch
        state.followers = tuple(followers)
        state.acked = {f: state.acked.get(f, -1) for f in state.followers}
        self._replicate((acg_id,), catch_up=True, refresh=refresh)

    def _reset_repl(self, acg_id: int) -> None:
        """Partition content changed outside the replication stream
        (split, merge, adoption): the log no longer describes the store,
        so every follower is marked for a fresh snapshot bootstrap.

        The restart begins a new log *generation*, so the replication
        epoch bumps with it: sequence numbers are only comparable within
        one epoch, and without the bump a follower still holding the old
        generation's high watermark could later be mistaken for caught-up
        and promoted with pre-reset data.  The Master bumps its own copy
        in lock-step (forced ``set_followers``) and adopts this one from
        the next heartbeat if its bump was lost.
        """
        state = self.repl.get(acg_id)
        if state is None:
            return
        state.repl_epoch += 1
        state.log = ReplicationLog()
        state.acked = {f: -1 for f in state.followers}

    def catch_up(self) -> None:
        """The catch-up pass, run by :meth:`tick` and
        ``PropellerService.sync_replication``: each replicated partition
        in sorted order, one :meth:`_replicate` pass apiece."""
        for acg_id in sorted(self.repl):
            self._replicate((acg_id,), catch_up=True)

    def _replicate(self, acg_ids: Iterable[int], catch_up: bool = False,
                   refresh: bool = False) -> None:
        """The one sender of this primary's replication stream.

        Plans, per partition and follower, the log suffix past the
        follower's ack, or a snapshot install when it has no usable ack
        (never installed, or behind the trimmed window) — on a catch-up
        only: a bootstrap must not delay a client's ack.  Each install
        follows a forced commit, so the snapshot is exactly consistent
        with ``log.last_seq``.  The suffixes then go out as one
        ``replicate_apply`` per follower node, distinct followers in
        flight at once (what lands on one is applied serially); a
        current follower is sent nothing unless ``refresh`` has every
        installed one learn the epoch (an install carries it itself).
        :meth:`_settle` reads every answer and nothing escapes:
        replication is a background duty that must never take the node
        down, nor hold up a client's ack.
        """
        if self.rpc is None:
            return
        streams: Dict[str, List[Tuple[int, int, Any]]] = {}
        for acg_id in acg_ids:
            state = self.repl.get(acg_id)
            if state is None:
                continue
            suffixes = {f: state.log.since(state.acked.get(f, -1))
                        for f in state.followers}
            for follower in [f for f, r in suffixes.items() if r is None]:
                state.acked[follower] = -1  # never installed, or trimmed past
                if catch_up and acg_id in self.repl:
                    self.cache.commit_for_search(acg_id)
                    self.repl_catchups += self._settle(
                        acg_id, follower, CallOutcome.capture(
                            lambda: self.rpc.call(
                                follower, "install_follower", acg_id,
                                self.name, state.repl_epoch,
                                state.log.last_seq,
                                self.replica(acg_id).segment(
                                    self.name, encode_segment)[0])))
            if acg_id not in self.repl:
                continue  # an install's answer deposed this primary
            for follower, records in suffixes.items():
                if records is not None and (records or refresh):
                    streams.setdefault(follower, []).append(
                        (acg_id, state.repl_epoch, records))
        if not streams:
            return
        with self.tracer.span("replicate", parallel=True, node=self.name,
                              followers=len(streams)):
            replies = scatter(
                self.machine.clock, streams,
                lambda follower: self.rpc.call(
                    follower, "replicate_apply", tuple(streams[follower]),
                    request_bytes=envelope_wire_bytes(
                        [DEFAULT_MSG_BYTES] * len(streams[follower]))))
        for follower, reply in replies.items():
            # A leg that failed whole failed for each of its partitions.
            outcomes = (reply.value if reply.ok
                        else [reply] * len(streams[follower]))
            for (acg_id, _, records), outcome in zip(streams[follower],
                                                     outcomes):
                if self._settle(acg_id, follower, outcome):
                    self.repl_streamed += len(records)
                    self.repl_catchups += catch_up

    def _settle(self, acg_id: int, follower: str,
                outcome: CallOutcome) -> bool:
        """Read one follower's answer to a send — DESIGN.md §6's
        follower-slot machine, in one place.  Returns whether it landed.

        * An applied sequence is the ack.  The log is trimmed to the
          lowest ack of the installed followers: no record at or below
          it is streamed again (a follower at ``-1`` re-installs from a
          snapshot, and one whose ack falls below the window takes the
          same path, through ``since`` answering None).
        * An unreachable follower stays behind; the next catch-up retries.
        * :class:`StaleReplEpoch`: a newer primary owns *that* partition
          (failed over while this node was silent), so this node deposes
          itself for it alone — retrying would just hammer the fence.
        * Anything else means the follower lost its replica: the slot
          goes back to *assigned* (``-1``) and the catch-up re-installs.
        """
        state = self.repl.get(acg_id)
        if state is None:
            return False  # deposed by another follower's answer
        if outcome.ok:
            state.acked[follower] = outcome.value
            state.log.trim_to(min(a for a in state.acked.values() if a >= 0))
        elif isinstance(outcome.error, StaleReplEpoch):
            self._depose(acg_id)
        elif not isinstance(outcome.error, DEGRADABLE_ERRORS):
            state.acked[follower] = -1
        return outcome.ok

    def _depose(self, acg_id: int) -> None:
        """Stop acting as a partition's replication primary.

        Called when a follower fenced this node's stream or install with
        a newer epoch: the partition was failed over (or re-assigned)
        while this node was out of the loop, so its log and ack map are
        another generation's state.  The replica itself stays queryable
        until routing catches up — exactly the migration dual-ownership
        tolerance — but no further streams or installs leave this node.
        """
        self.repl.pop(acg_id, None)
        self.repl_deposed += 1
        self.journal.emit("repl.depose", node=self.name, acg_id=acg_id)

    # -- replication (RF > 1): follower half -------------------------------------------------

    def handle_install_follower(self, acg_id: int, primary: str,
                                repl_epoch: int, seq: int,
                                segment: bytes) -> int:
        """Bootstrap (or replace) this node's follower replica of an ACG
        from its primary's segment.

        Idempotent: re-installation simply rebuilds the follower from the
        fresh snapshot.  Returns the applied sequence (= ``seq``).

        Behind the ``repl`` fence (:meth:`_fence_repl`): a deposed
        primary (failed over while silent) must not overwrite a
        current-epoch replica with a stale snapshot — that would rewind
        the fence itself and let the new primary's next stream apply a
        suffix over a divergent base.  A snapshot that passes it from a
        newer primary ends this node's own primary claim.
        """
        self._fence_repl("install_follower", acg_id, repl_epoch,
                         primary=primary)
        self.repl.pop(acg_id, None)
        view = decode_segment(segment)
        replica = self._incarnate(AcgReplica(acg_id, self.machine))
        self._install_snapshot(replica, view)
        self.followers[acg_id] = FollowerState(
            primary=primary, repl_epoch=repl_epoch, replica=replica,
            applied_seq=seq)
        return seq

    def handle_replicate_apply(
            self, streams: Sequence[Tuple[int, int, Sequence[
                Tuple[int, Tuple[IndexUpdate, ...]]]]]
            ) -> Tuple[CallOutcome, ...]:
        """Apply one primary's log suffixes — ``(acg_id, repl_epoch,
        records)`` per partition — to the follower replicas here; returns
        one outcome per stream, in order: the applied sequence, or the
        error that partition alone met (:class:`StaleReplEpoch` fences a
        deposed primary, :class:`UnknownAcg` reports lost state), so the
        primary deposes or re-installs per partition."""
        return tuple(
            CallOutcome.capture(lambda s=stream: self._apply_stream(*s),
                                (StaleReplEpoch, UnknownAcg))
            for stream in streams)

    def _apply_stream(self, acg_id: int, repl_epoch: int,
                      records: Sequence[Tuple[int, Tuple[IndexUpdate, ...]]]
                      ) -> int:
        """Apply a log suffix to one follower replica; returns applied seq.

        Idempotent by sequence contiguity: records at or below the
        applied watermark are skipped (duplicate delivery, primary
        re-sends after a lost ack), a gap stops the apply so the primary
        re-streams from the returned watermark.  A deposed primary's
        stream is refused by the ``repl`` fence.
        """
        st = self.followers.get(acg_id)
        if st is None:
            raise UnknownAcg(f"{self.name} has no follower replica of ACG {acg_id}")
        self._fence_repl("replicate_apply", acg_id, repl_epoch)
        st.repl_epoch = repl_epoch
        for seq, updates in records:
            if seq <= st.applied_seq:
                continue
            if seq != st.applied_seq + 1:
                break
            # One record is one batch: it applies atomically before the
            # watermark advances, so hedged reads never see half of it.
            st.replica.apply_batch(updates)
            st.applied_seq = seq
            st.last_apply_t = self.machine.clock.now()
        return st.applied_seq

    def handle_replica_watermark(self, acg_id: int) -> Tuple[int, int]:
        """(repl_epoch, applied_seq) of this node's follower replica."""
        st = self.followers.get(acg_id)
        if st is None:
            raise UnknownAcg(f"{self.name} has no follower replica of ACG {acg_id}")
        return (st.repl_epoch, st.applied_seq)

    def handle_promote_replica(self, acg_id: int, repl_epoch: int) -> Tuple[int, int]:
        """Failover promotion: the follower replica becomes the owned one.

        An epoch bump and a dictionary move — no WAL replay, no
        checkpoint read, which is why promotion time stays flat as the
        data volume grows.  The promoted replica gets a fresh incarnation
        (a new watermark identity, preserving the summary/held-answer
        soundness argument) and this node becomes the partition's primary
        at ``repl_epoch``, continuing the sequence from its applied
        watermark.  Returns (applied_seq, file_count).

        Idempotent under at-least-once delivery: a repeat at the same
        ``repl_epoch`` for the partition this promotion already made
        owned returns the same answer (raising instead would make the
        Master file a partition this node now owns as lost).
        """
        st = self.followers.pop(acg_id, None)
        if st is None:
            mine = self.repl.get(acg_id)
            if (mine is not None and mine.promoted is not None
                    and mine.repl_epoch == repl_epoch
                    and acg_id in self.replicas):
                # A repeat delivery of the promotion that made this node
                # the primary (at-least-once RPC): same answer, no second
                # promotion.
                self.journal.emit("repl.promote_repeat", node=self.name,
                                  acg_id=acg_id, repl_epoch=repl_epoch)
                return mine.promoted
            raise UnknownAcg(f"{self.name} has no follower replica of ACG {acg_id}")
        self.replicas[acg_id] = self._incarnate(st.replica)
        self.migrated_away.discard(acg_id)
        answer = (st.applied_seq, st.replica.file_count)
        self.repl[acg_id] = PrimaryReplState(
            repl_epoch=repl_epoch, log=ReplicationLog(base=st.applied_seq),
            promoted=answer)
        return answer

    def handle_drop_follower(self, acg_id: int) -> None:
        """Forget this node's follower replica of an ACG."""
        self.followers.pop(acg_id, None)

    def handle_reset_follower_ack(self, acg_id: int, follower: str) -> None:
        """Void one follower's acked watermark (Master-directed).

        Sent when the Master notices a follower stopped reporting its
        replica (crash-restart lost it): the stale watermark here would
        otherwise keep this primary from ever re-streaming.  The next
        tick's catch-up pass re-installs the follower from snapshot."""
        state = self.repl.get(acg_id)
        if state is not None and follower in state.acked:
            state.acked[follower] = -1

    def handle_search_replica(self, acg_ids: Sequence[int], predicate: Predicate,
                              index_names: Optional[Sequence[str]] = None,
                              min_seqs: Optional[Dict[int, int]] = None
                              ) -> ReplicaSearchReply:
        """Serve a hedged search leg from follower replicas.

        Followers apply streamed updates immediately, so no cache commit
        is needed; ``min_seqs`` carries the client's read-your-writes
        watermark per ACG — an ACG whose applied sequence sits below it
        is still answered but flagged ``lagging`` (usable only under the
        client's opt-in partial-results deadline).  ACGs with no follower
        replica here come back in ``missing``.
        """
        query = self._prepare(predicate)
        reply = ReplicaSearchReply(node=self.name, epoch=self.route_epoch_seen)
        applied: List[Tuple[int, int]] = []
        lagging: List[int] = []
        missing: List[int] = []
        for acg_id in sorted(acg_ids):
            st = self.followers.get(acg_id)
            if st is None:
                missing.append(acg_id)
                continue
            reply.results.append(
                self._search_follower(st, query, index_names))
            applied.append((acg_id, st.applied_seq))
            if min_seqs and st.applied_seq < min_seqs.get(acg_id, 0):
                lagging.append(acg_id)
        reply.applied = tuple(applied)
        reply.lagging = tuple(lagging)
        reply.missing = tuple(missing)
        return reply

    def _search_follower(self, st: FollowerState, query: PreparedQuery,
                         index_names: Optional[Sequence[str]]) -> SearchResult:
        """One follower replica's answer — the :meth:`_search_one` core
        without commit forcing or residency I/O (the
        follower store is memory-resident by construction)."""
        now = self.machine.clock.now()
        replica = st.replica
        plans = self._plans(replica, query, index_names, now)
        return self._run_leg(
            replica.acg_id, replica.store,
            lambda: execute_plans(plans, query, replica.indexes,
                                  replica.store, now))

    # -- liveness -----------------------------------------------------------------------------

    def make_heartbeat(self) -> Heartbeat:
        """Build the liveness/status report sent to the Master.

        Per-ACG sizes count committed files plus distinct files still
        parked in the index cache — the Master's split trigger must see
        client-placed files before the commit timeout fires."""
        pending: Dict[int, Set[int]] = {}
        for acg_id in self.cache.pending_acgs():
            ids = pending.setdefault(acg_id, set())
            for update in self.cache.pending_ops(acg_id):
                if update.op is UpdateOp.UPSERT:
                    ids.add(update.file_id)
        sizes = {}
        summaries: List[SummarySnapshot] = []
        for acg_id, replica in self.replicas.items():
            extra = sum(1 for fid in pending.get(acg_id, ())
                        if fid not in replica.store)
            sizes[acg_id] = replica.file_count + extra
            if acg_id in self.handoff_intents:
                # Handed off: the migration target's summary is the one
                # that will validate after the flip — don't advertise a
                # watermark no future search can match.
                continue
            summaries.append(replica.summary.snapshot(
                acg_id=acg_id,
                watermark=self.watermark(acg_id),
                # Any uncommitted update (upsert *or* delete) marks the
                # snapshot dirty: clients must not prune on it.
                dirty=bool(self.cache.pending_ops(acg_id)),
                file_count=replica.file_count,
            ))
        replication: List[Any] = []
        for acg_id in sorted(self.repl):
            state = self.repl[acg_id]
            replication.append((
                "p", acg_id, state.repl_epoch, state.log.last_seq,
                tuple(sorted((f, seq) for f, seq in state.acked.items()
                             if seq >= 0))))
        for acg_id in sorted(self.followers):
            follower = self.followers[acg_id]
            replication.append(
                ("f", acg_id, follower.repl_epoch, follower.applied_seq))
        return Heartbeat(
            node=self.name,
            timestamp=self.machine.clock.now(),
            acg_sizes=tuple(sorted(sizes.items())),
            free_bytes=self.machine.spec.ram_bytes,
            summaries=tuple(sorted(summaries, key=lambda s: s.acg_id)),
            replication=tuple(replication),
        )

    # -- shared-storage persistence ----------------------------------------------------------

    def checkpoint_to_shared(self) -> int:
        """Write every hosted ACG's checkpoint to the shared file system.

        A checkpoint is durability, not visibility: each ACG's committed
        state is written with its cached, uncommitted updates as the
        segment's pending tail, and the cache keeps them until its own
        timeout or a search commits them.  So when a periodic checkpoint
        lands never changes what a search sees or how fresh it is.

        Returns how many ACGs were persisted; a no-op when no shared
        storage is attached (unit-test configurations).
        """
        if self.shared_vfs is None:
            return 0
        count = 0
        for replica in self.replicas.values():
            if replica.acg_id in self.handoff_intents:
                # Handed off: the target owns durability now, and this
                # node's checkpoint is already scheduled for removal.
                continue
            # The serialized write costs one sequential transfer on the
            # shared-storage device (not the local index disk).
            self._checkpoint_one(replica,
                                 self.cache.pending_ops(replica.acg_id))
            count += 1
        # Failover restores this snapshot: anything acknowledged after
        # this instant lives only in the local WAL and dies with the node.
        self.last_checkpoint_t = self.machine.clock.now()
        return count

    def handle_adopt_acg(self, checkpoint_path: str) -> int:
        """Failover: install an ACG from another node's shared checkpoint.

        The checkpoint's pending tail — updates the victim acknowledged
        but had not committed — is committed here right after the
        snapshot, as a WAL replay commits what it recovers.  Returns the
        number of files the adopted partition holds; raises
        ``FileNotFound`` for a checkpoint never written and
        :class:`SegmentCorruption` for one that fails validation (nothing
        is installed in either case).
        """
        if self.shared_vfs is None:
            raise ClusterError(f"{self.name} has no shared storage attached")
        view = decode_segment(
            read_checkpoint(self.shared_vfs, checkpoint_path))
        acg_id = view.acg_id
        pending = view.pending
        self._clear_stale_handoff(acg_id)
        for spec in view.specs:
            if spec.name not in self._global_specs:
                self._global_specs[spec.name] = spec
        replica = self.replica(acg_id, create=True)
        self._thaw(acg_id, reason="adopt")
        self._install_snapshot(replica, view)
        if pending:
            # Straight into the replica, not through the cache's commit:
            # this node's WAL holds none of these records, so its commit
            # watermark must not count them.
            replica.apply_batch(pending)
            now = self.machine.clock.now()
            for update in pending:
                self.freshness.visible(self.name, update.file_id, now)
        # Loading the checkpoint is one sequential read from shared storage.
        self._shared_device.reset_head()
        self._shared_device.read((acg_id % 4096) << 24, replica.resident_bytes())
        # Adopted content bypassed the replication log: force followers
        # back through a snapshot bootstrap.
        self._reset_repl(acg_id)
        return replica.file_count

    # -- crash recovery ----------------------------------------------------------------------

    def recover_from_wal(self) -> int:
        """Rebuild the pending cache from the WAL after a simulated crash.

        Replayed updates go straight through commit (they were already
        acknowledged); returns how many records were recovered.  Records
        the log had to drop at a torn or corrupt tail accumulate into
        :attr:`wal_replay_dropped_total` (the ``wal.replay_dropped`` node
        metric) so every unrecoverable acknowledgement is accounted for.
        """
        recovered = 0
        # Snapshot the pre-crash watermarks: replay's own commits bump
        # the live counts, which must not shift the skip decision for
        # records later in the same log.
        committed_before = dict(self._wal_commit_counts)
        seen: Dict[int, int] = {}
        batch_tag = WriteAheadLog.BATCH_TAG
        # Skip accounting is in *updates*, not records: a skipped batch
        # record hides its whole envelope, and the metric feeds the
        # "every acknowledgement is accounted for" audit.
        skipped_updates = 0

        def keep(record) -> bool:
            # Skip records for ACGs this node migrated away (dropped) or
            # still holds behind a handoff intent — replaying those would
            # resurrect handed-off data on the old owner.  Also skip each
            # ACG's already-committed prefix: those effects are durable
            # in the store, and re-applying them over a torn tail could
            # resurrect a committed-then-torn delete.  The skips are
            # counted, not silent.  Watermarks count *updates*, so a
            # batch record advances ``seen`` by its batch length; a batch
            # straddling the watermark is kept and sliced in the loop.
            nonlocal skipped_updates
            if not (isinstance(record, tuple) and len(record) == 3
                    and record[0] == batch_tag):
                raise WalCorruption(
                    f"{self.name}: WAL record is not a batch frame: "
                    f"{record!r:.80}")
            acg_id, length = record[1], len(record[2])
            if acg_id in self.migrated_away or acg_id in self.handoff_intents:
                skipped_updates += length
                return False
            seen[acg_id] = seen.get(acg_id, 0) + length
            if seen[acg_id] <= committed_before.get(acg_id, 0):
                skipped_updates += length
                return False
            return True

        for _, acg_id, raw in self.wal.replay(keep):
            # ``seen`` is exact through this record (replay is lazy), so
            # the committed prefix of a straddling batch is the first
            # ``already`` updates — replaying those would not be
            # idempotent against a torn tail.
            already = max(0, committed_before.get(acg_id, 0)
                          - (seen[acg_id] - len(raw)))
            skipped_updates += already
            updates = [IndexUpdate(file_id=r[1], op=UpdateOp(r[2]),
                                   attrs=tuple(r[4]), path=r[3])
                       for r in raw[already:]]
            if not updates:
                continue
            self._commit_updates(acg_id, updates)
            recovered += len(updates)
        self.wal_replay_dropped_total += self.wal.replay_dropped
        self.wal_replay_skipped_total += skipped_updates
        self._truncate_wal()
        return recovered

    # -- crash / restart / rejoin lifecycle ----------------------------------------------------

    def crash(self, torn_tail_bytes: int = 0) -> List[int]:
        """Process crash: all in-memory state dies, durable state stays.

        The pending cache (acknowledged-but-uncommitted updates) and the
        residency map are lost; the committed replicas (disk-backed) and
        the WAL survive, minus ``torn_tail_bytes`` chopped off the log's
        end — the bytes in flight when power died.  Marks the endpoint
        down.  Returns the file ids whose updates were pending (and are
        therefore recoverable only from the WAL) for crash-consistency
        accounting.
        """
        pending = sorted({u.file_id
                          for acg in self.cache.pending_acgs()
                          for u in self.cache.pending_ops(acg)})
        self.cache._pending.clear()
        self.cache._oldest.clear()
        # Replication state is volatile on both halves: the primary's log
        # and ack map die with the process (followers are re-installed on
        # restart's catch-up), and hosted follower replicas are gone — a
        # promotion can only use a *live* follower's copy.
        self.repl.clear()
        self.followers.clear()
        # Tier state is volatile too: the frozen map and its summary
        # sidecars die with the process (segments on the cold tier are
        # orphan-tolerant — a re-freeze overwrites the same key).
        self.frozen.clear()
        self._acg_last_access.clear()
        self.drop_resident()
        if torn_tail_bytes > 0:
            self.wal.simulate_torn_tail(torn_tail_bytes)
        self.endpoint.fail()
        self.journal.emit("node.crash", node=self.name,
                          pending_files=len(pending),
                          torn_tail_bytes=torn_tail_bytes)
        return pending

    def restart(self) -> int:
        """Bring a crashed process back on the same durable state.

        Replays the WAL (rebuilding everything acknowledged before the
        crash that survived the torn tail) and marks the endpoint up.
        Returns the number of records recovered.
        """
        recovered = self.recover_from_wal()
        self.endpoint.recover()
        self.journal.emit("node.restart", node=self.name,
                          recovered_records=recovered)
        return recovered

    def reset(self) -> None:
        """Wipe the node for a rejoin after failover moved its data away.

        A node that comes back *after* the Master failed its partitions
        over must not serve (or count) its stale replicas — the live
        copies belong to the adopters now.  The node rejoins empty and
        receives partitions again through routing and rebalancing.
        """
        self.replicas.clear()
        self.cache._pending.clear()
        self.cache._oldest.clear()
        self._truncate_wal()
        self.handoff_intents.clear()
        self.reshape_epochs.clear()
        self.migrated_away.clear()
        self.repl.clear()
        self.followers.clear()
        self.frozen.clear()
        self._acg_last_access.clear()
        self.drop_resident()
