"""Propeller client.

Lives on each client machine (Figure 5): the File Access Management module
(an observer of the shared VFS) builds the per-client ACG in RAM; the File
Query Engine turns query strings — API form or query-directory form — into
predicate ASTs and fans search requests out to the Index Nodes the Master
names, in parallel; file-indexing requests go out in batches (the paper's
evaluation uses a batch size of 128), routed from the client's cached
route table and scattered the same way the searches are — one envelope
per Index Node, every node in flight at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import eq
from typing import (AbstractSet, Any, Callable, Dict, FrozenSet, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from repro.cluster.messages import (IndexUpdate, RouteEntry, RouteTable,
                                    SearchResult, UpdateBatch, UpdateOp,
                                    envelope_wire_bytes)
from repro.errors import (ClusterError, NodeDown, NotActingMaster,
                          RpcTimeout, StaleMasterTerm, StaleRoute)
from repro.fs.interceptor import FileAccessManager
from repro.obs.freshness import NULL_FRESHNESS
from repro.obs.journal import NULL_JOURNAL
from repro.obs.tracing import NULL_TRACER
from repro.fs.namespace import Inode
from repro.fs.vfs import VirtualFileSystem
from repro.indexstructures.base import IndexKind
from repro.query.ast import Predicate
from repro.query.executor import DEGRADABLE_ERRORS, FanoutOutcome, scatter_gather
from repro.query.summary import SummarySnapshot, summary_may_match
from repro.query.parser import parse_query, parse_query_directory
from repro.query.planner import IndexSpec
from repro.query.prepared import PreparedCache, PreparedQuery
from repro.replication.hedging import HedgedReply, HedgePolicy
from repro.sim.rpc import (DEFAULT_MSG_BYTES, CallOutcome, HedgedOutcome,
                           RpcNetwork, scatter)

DEFAULT_BATCH_SIZE = 128

# Oldest-entry age (virtual seconds) past which an enqueue flushes the
# update queue even when it is not full.  Matches the Index Node cache's
# commit window: holding updates longer than the server-side batching
# horizon buys no further amortization, it only delays visibility.
DEFAULT_BATCH_AGE_S = 5.0

_INODE_ATTRS = ("size", "mtime", "ctime", "uid")

# How many empty partitions a client grabs per allocation round-trip.
# Bigger slabs amortize the Master RPC over more locally-placed files;
# the Master spreads each slab across Index Nodes exactly the way its
# own per-file placement would.
_ALLOC_BATCH = 4

# Minimum virtual seconds between summary-table polls.  Summaries only
# change on heartbeat delivery (every ~5 s), so polling faster buys
# nothing; the fresh-marker protocol makes the poll itself nearly free.
_SUMMARY_REFRESH_MIN_S = 5.0

# Distinct query strings a client keeps parsed and prepared.
_QUERY_MEMO_CAP = 1024


@dataclass
class SearchAnswer:
    """A search's paths plus its availability verdict.

    ``degraded`` is True when at least one Index Node could not serve its
    share after retries; ``unreachable_partitions`` then names exactly
    which ACGs the answer is missing, and ``unreachable_nodes`` which
    nodes failed.  A non-degraded answer is complete.

    ``partial`` is True only under the opt-in ``deadline_s`` semantics:
    a hedged leg was answered by a follower replica that had not yet
    applied this client's latest acknowledged writes.  The answer is a
    consistent-but-stale view of ``lagging_partitions``; everything else
    is current.  A lagging answer is only accepted if it arrived within
    ``deadline_s`` of the search's start; without a deadline (or past
    it) a lagging replica is never used, so ``partial`` stays False.
    """

    paths: List[str] = field(default_factory=list)
    degraded: bool = False
    unreachable_partitions: List[int] = field(default_factory=list)
    unreachable_nodes: List[str] = field(default_factory=list)
    partial: bool = False
    lagging_partitions: List[int] = field(default_factory=list)


@dataclass
class _Send:
    """One partition's batch and the node a flush is sending it to."""

    node: str
    batch: UpdateBatch


def merged_paths(results: Sequence[SearchResult]) -> List[str]:
    """Every path the legs answered, sorted, each once.

    A leg's ``paths`` arrive sorted, so the concatenation is a handful
    of ascending runs — which is what the sort merges.  Partitions hold
    disjoint files; a path answered twice (both halves of a hand-off
    caught mid-flight) is dropped where the sort puts it: next to its
    twin."""
    merged: List[str] = []
    for result in results:
        merged.extend(result.paths)
    merged.sort()
    if any(map(eq, merged, islice(merged, 1, None))):
        merged = [path for path, _ in groupby(merged)]
    return merged


def _envelopes(sends: Sequence[_Send]) -> Dict[str, List[_Send]]:
    """The sends grouped per Index Node: one envelope each."""
    envelopes: Dict[str, List[_Send]] = {}
    for send in sends:
        envelopes.setdefault(send.node, []).append(send)
    return envelopes


def _batches(envelope: Sequence[_Send]) -> Tuple[UpdateBatch, ...]:
    return tuple(send.batch for send in envelope)


def _envelope_bytes(envelope: Sequence[_Send]) -> int:
    return envelope_wire_bytes([send.batch.wire_bytes() for send in envelope])


class PropellerClient:
    """One client's view of the Propeller service."""

    def __init__(self, vfs: VirtualFileSystem, rpc: RpcNetwork,
                 master: str = "master", batch_size: int = DEFAULT_BATCH_SIZE,
                 pid_filter: Optional[Set[int]] = None,
                 local: bool = False,
                 pump: Optional[Callable[[], None]] = None,
                 hedging: Optional[HedgePolicy] = None,
                 masters: Optional[Sequence[str]] = None) -> None:
        self.vfs = vfs
        self.rpc = rpc
        self.master = master
        # Every Master endpoint this client may re-home to.  With a warm
        # standby deployed, a MasterDown/timeout or a not-acting NACK on
        # one endpoint retries the call against the others and re-homes
        # to whichever answered (the acting Master after a promotion).
        self.master_candidates: Tuple[str, ...] = (
            tuple(masters) if masters else (master,))
        self.master_rehomes = 0
        self.batch_size = batch_size
        # Update coalescing (the group-commit feed): queued updates
        # for one file fold into the newest (upserts carry complete
        # attribute snapshots, so folding is lossless) and per-ACG
        # groups travel as one UpdateBatch envelope; the queue flushes
        # on size *or* age so a trickle never sits unsent past the
        # server's commit window.
        self.batch_age_s = DEFAULT_BATCH_AGE_S
        self._pending_since: Optional[float] = None
        self.local = local
        # Tail-tolerant search (RF > 1): a policy object makes each
        # search leg race a follower replica after a p95-derived timer.
        # None (the default) keeps the fan-out single-copy.
        self.hedging = hedging
        # Background timers (cache commits, heartbeats, checkpoints) fire
        # when virtual time advances (service.advance / pump) — never
        # inside a request, because background I/O runs concurrently with
        # foreground requests on real deployments and must not inflate a
        # measured request's latency on the single simulation clock.
        self._pump = pump if pump is not None else (lambda: None)
        self.access_manager = FileAccessManager(
            on_create=self._on_create,
            on_unlink=self._on_unlink,
            on_rename=self._on_rename,
            pid_filter=pid_filter,
        )
        vfs.add_observer(self.access_manager)
        self._pending: List[Tuple[int, IndexUpdate]] = []  # (hint, update)
        # file id → its slot in ``_pending`` (coalescing is a lookup).
        self._pending_slot: Dict[int, int] = {}
        # -- client-side route cache (the routing-epoch protocol) -------------
        # The Master serves a versioned route table; this cache routes
        # update batches and search fan-outs locally, refreshing only
        # when an Index Node NACKs a stale epoch.  ``_route_nodes`` and
        # ``_route_sizes`` mirror the Master's partition→node map and its
        # view of each partition's file count; ``_file_routes`` /
        # ``_acg_files`` hold the per-file routes this client placed or
        # learned — always into a partition the table shows placed.
        self._route_epoch = 0
        self._cluster_target = 0
        self._route_nodes: Dict[int, Optional[str]] = {}
        self._route_sizes: Dict[int, int] = {}
        # Follower replicas per partition (RF > 1): the candidate targets
        # a search leg may hedge to.  Staleness is harmless — a wrong
        # entry just costs a failed hedge leg, never a wrong answer.
        self._route_replicas: Dict[int, Tuple[str, ...]] = {}
        # Read-your-writes watermark: the newest replication sequence
        # each partition's primary acked to *this* client.  A follower
        # answer below this mark is "lagging" and only usable under the
        # opt-in partial-results deadline.
        self._repl_seq_seen: Dict[int, int] = {}
        # Partitions the most recent search answered from a lagging
        # replica (deadline opt-in only) — surfaced by search_detailed.
        self._last_lagging: List[int] = []
        self._file_routes: Dict[int, int] = {}
        self._acg_files: Dict[int, Set[int]] = {}
        self.route_cache_hits = 0
        self.route_cache_misses = 0
        self.stale_route_nacks = 0
        self.route_refreshes = 0
        # -- summary cache (the search-pruning layer) ------------------------
        # Partition summaries (Bloom + zone maps) fetched from the
        # Master's versioned summary table; a search leg whose summary
        # proves it cannot match is *asked to be skipped* — the owning
        # node validates the skip against its live watermark, so a stale
        # entry here costs a fallback search, never a missed result.
        self._summaries: Dict[int, SummarySnapshot] = {}
        self._summary_version = 0
        self._summary_fetch_t: Optional[float] = None
        self.summary_refreshes = 0
        # Ops/testing knob: False forces every leg to be searched (the
        # unpruned fan-out), which oracles prove pruning lossless against.
        self.prune_searches = True
        # Query string → its parsed predicate, prepared (canonical form,
        # compiled summary check, Bloom probe masks): a repeated query
        # pays the parser and the preparation once.
        self._queries = PreparedCache(_QUERY_MEMO_CAP)
        self.searches_issued = 0
        self.updates_sent = 0
        self.updates_requeued = 0
        # Deletes whose Index Node was unreachable even after retries:
        # the index entry may outlive the file until an operator (or the
        # chaos checker) reconciles.  Kept so callers can see the debt.
        self.lost_deletes: List[int] = []
        # The availability verdict of the most recent search fan-out.
        self.last_outcome: FanoutOutcome = FanoutOutcome()
        # Observability (wired by the service): spans for the search
        # path, a registry for request-latency histograms.  Both charge
        # zero simulated time.
        self.tracer = NULL_TRACER
        self.registry = None
        self.freshness = NULL_FRESHNESS
        self.journal = NULL_JOURNAL
        # Namespace integration: listing "/scope/?query" on the VFS runs
        # the search through this client's File Query Engine.
        vfs.set_query_handler(self.search_directory)

    def set_freshness(self, tracker) -> None:
        """Thread one freshness tracker through this client and its File
        Access Management module (so close-after-write events stamp)."""
        self.freshness = tracker
        self.access_manager.freshness = tracker

    # -- master re-homing ---------------------------------------------------------

    def _master_call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Call the Master, re-homing across candidates on failure.

        The current home is tried first; a ``NodeDown``/``RpcTimeout``
        (crashed or partitioned Master, after the RPC layer's own retry
        budget) or a ``NotActingMaster``/``StaleMasterTerm`` NACK (the
        endpoint is a standby, or was deposed) moves on to the next
        candidate.  Success re-homes ``self.master`` so later calls go
        straight to the acting Master.  With a single candidate (the
        default deployment) this is exactly one ``rpc.call`` — the same
        call sequence as before standbys existed."""
        last_error: Optional[ClusterError] = None
        for name in (self.master,) + tuple(
                c for c in self.master_candidates if c != self.master):
            try:
                result = self.rpc.call(name, method, *args, **kwargs)
            except (NodeDown, RpcTimeout, NotActingMaster,
                    StaleMasterTerm) as exc:
                last_error = exc
                continue
            if name != self.master:
                self.master = name
                self.master_rehomes += 1
                if self.registry is not None:
                    self.registry.counter(
                        "cluster.client.master_rehomes").inc()
            return result
        assert last_error is not None
        raise last_error

    # -- route cache --------------------------------------------------------------

    def _note_route(self, hit: bool) -> None:
        if hit:
            self.route_cache_hits += 1
            if self.registry is not None:
                self.registry.counter("cluster.client.route_cache_hits").inc()
        else:
            self.route_cache_misses += 1
            if self.registry is not None:
                self.registry.counter("cluster.client.route_cache_misses").inc()

    def _note_nacks(self, count: int) -> None:
        self.stale_route_nacks += count
        if self.registry is not None:
            self.registry.counter("cluster.client.stale_route_nacks").inc(count)

    def _learn_ack(self, ack: Any) -> None:
        """Record the replication watermark from an index_update ack.

        Last-ack-wins on purpose (not max): a partition's replication log
        restarts after splits/merges/adoption, so the *newest* acked
        sequence — not the largest ever seen — is this client's
        read-your-writes mark for hedged follower reads."""
        seq = getattr(ack, "seq", 0)
        if seq:
            self._repl_seq_seen[ack.acg_id] = seq

    def _apply_route_table(self, table: RouteTable) -> None:
        """Adopt a route table and settle this client's file routes.

        A table names the partitions that changed; whether a change
        moved files (split, merge) or only the partition (migration,
        failover) is the Master's knowledge, so the files this client
        keeps in those partitions are looked up there in one round trip
        — none when it keeps no file in them.  Splits and merges teach
        the Master every file they move: its answer wins, and a file it
        does not know is where this client put it.  A file left in a
        partition that is gone or lost is forgotten, to be placed anew.

        The lookup comes first, so a lost one leaves cache and epoch as
        they were and the next refresh names the same partitions."""
        if table.fresh:
            self._route_epoch = max(self._route_epoch, table.epoch)
            return
        named = (list(self._acg_files) if table.full
                 else [entry.acg_id for entry in table.entries])
        files = sorted(file_id for acg_id in named
                       for file_id in self._acg_files.get(acg_id, ()))
        homes: Dict[int, int] = self._master_call(
            "lookup_file", files, local=self.local,
            request_bytes=8 * len(files)) if files else {}
        self._cluster_target = table.cluster_target
        if table.full:
            self._route_nodes.clear()
            self._route_sizes.clear()
            self._route_replicas.clear()
        for entry in table.entries:
            if entry.size < 0:
                # Merged away.
                self._route_nodes.pop(entry.acg_id, None)
                self._route_sizes.pop(entry.acg_id, None)
                self._route_replicas.pop(entry.acg_id, None)
                continue
            self._route_nodes[entry.acg_id] = entry.node
            self._route_sizes[entry.acg_id] = entry.size
            if entry.replicas:
                self._route_replicas[entry.acg_id] = entry.replicas
            else:
                self._route_replicas.pop(entry.acg_id, None)
        self._route_epoch = table.epoch
        for file_id in files:
            acg_id = homes.get(file_id, self._file_routes[file_id])
            if self._route_nodes.get(acg_id):
                self._learn_route(file_id, acg_id)
            else:
                self._forget_file(file_id)

    def _refresh_routes(self) -> None:
        table: RouteTable = self._master_call(
            "route_table", self._route_epoch, local=self.local)
        self.route_refreshes += 1
        if self.registry is not None:
            self.registry.counter("cluster.client.route_refreshes").inc()
        self._apply_route_table(table)

    def _first_contact(self) -> None:
        """One full-table pull before the first routing decision, so
        local placement sees existing partitions and the clustering
        target."""
        if self._route_epoch == 0:
            try:
                self._refresh_routes()
            except DEGRADABLE_ERRORS:
                pass

    def _refresh_summaries(self) -> None:
        """Throttled poll of the Master's partition-summary table.

        Best-effort: a failed or skipped poll just leaves the cache as
        is — pruning decisions degrade to "search everything", which is
        always safe."""
        now = self.vfs.clock.now()
        if (self._summary_fetch_t is not None
                and now - self._summary_fetch_t < _SUMMARY_REFRESH_MIN_S):
            return
        try:
            table = self._master_call("summary_table",
                                      self._summary_version, local=self.local)
        except DEGRADABLE_ERRORS:
            return
        self._summary_fetch_t = now
        self.summary_refreshes += 1
        if self.registry is not None:
            self.registry.counter("cluster.client.summary_refreshes").inc()
        if table.fresh:
            return
        self._summary_version = table.version
        self._summaries = {s.acg_id: s for s in table.entries}

    def _learn_route(self, file_id: int, acg_id: int) -> None:
        old = self._file_routes.get(file_id)
        if old is not None and old != acg_id:
            self._acg_files.get(old, set()).discard(file_id)
        self._file_routes[file_id] = acg_id
        self._acg_files.setdefault(acg_id, set()).add(file_id)

    def _forget_file(self, file_id: int) -> None:
        acg_id = self._file_routes.pop(file_id, None)
        if acg_id is not None:
            self._acg_files.get(acg_id, set()).discard(file_id)

    def _locate_file(self, file_id: int) -> Tuple[Optional[Tuple[str, int]], bool]:
        """Presence probe for a delete of a file this client never
        placed: ask each Index Node which owned ACG holds it.

        Returns ``((node, acg_id) | None, scan_complete)``; an incomplete
        scan means some node was unreachable, so a miss must be treated
        as "the copy may still exist" rather than "never indexed".
        Deletes are rare and the evicted-route window rarer, so this
        fan-out stays off every hot path."""
        if not self._route_nodes:
            try:
                self._refresh_routes()
            except DEGRADABLE_ERRORS:
                return None, False
        if self.registry is not None:
            self.registry.counter("cluster.client.locate_probes").inc()
        complete = True
        for node in sorted({n for n in self._route_nodes.values() if n}):
            try:
                acg_id = self.rpc.call(node, "locate_file", file_id,
                                       local=self.local)
            except DEGRADABLE_ERRORS:
                complete = False
                continue
            if acg_id is not None:
                return (node, acg_id), complete
        return None, complete

    def _cache_size(self, acg_id: int) -> int:
        """A partition's effective size: the Master's reported count or
        the number of files this client itself routed there, whichever
        is larger."""
        return max(self._route_sizes.get(acg_id, 0),
                   len(self._acg_files.get(acg_id, ())))

    def _pick_open_acg(self, pack: bool = False) -> Optional[int]:
        """A placed partition still under the clustering target: the
        smallest (new files spread), or with ``pack`` the fullest (a
        burst fills one partition before the next); ties to the oldest."""
        best: Optional[int] = None
        best_key: Optional[Tuple[int, int]] = None
        for acg_id, node in self._route_nodes.items():
            if not node:
                continue
            size = self._cache_size(acg_id)
            if size >= self._cluster_target:
                continue
            key = (-size if pack else size, acg_id)
            if best_key is None or key < best_key:
                best, best_key = acg_id, key
        return best

    def _resolve_local(self, file_id: int, hint: int,
                       alloc_state: Dict[str, bool],
                       place: bool = True) -> Optional[int]:
        """The one placement rule: a file's partition, from the cache.

        A file already routed stays where it is.  A new one (``place``)
        joins its producer (``hint``) when that has a route — causality
        is the partitioning criterion.  Otherwise it goes to an open
        cached partition — the smallest when it has no producer, the
        fullest when its producer is not placed yet (it is one of a
        burst being indexed together: keep the burst together) — a
        fresh slab being allocated from the Master when every cached
        partition is full.
        None: not routed and not to be placed (a delete), or no
        partition could be allocated — the update waits for next time."""
        acg_id = self._file_routes.get(file_id)
        if acg_id is not None or not place:
            return acg_id
        acg_id = self._file_routes.get(hint)
        if acg_id is None:
            acg_id = self._pick_open_acg(pack=hint != -1)
        if acg_id is None and not alloc_state.get("failed"):
            try:
                self._apply_route_table(self._master_call(
                    "allocate_partitions", _ALLOC_BATCH,
                    self._route_epoch, local=self.local))
            except DEGRADABLE_ERRORS:
                alloc_state["failed"] = True
                return None
            acg_id = self._pick_open_acg()
        if acg_id is not None:
            self._learn_route(file_id, acg_id)
        return acg_id

    # -- namespace-change callbacks (from File Access Management) ----------------

    def _on_create(self, path: str, inode: Inode) -> None:
        # Creation alone does not index a file — applications choose when
        # to index (Section IV's workflow) — but deletion must clean up,
        # which is why only _on_unlink talks to the Master here.
        return None

    def _on_unlink(self, path: str, inode: Inode) -> None:
        # Cancel any still-batched updates for this file: flushing an
        # upsert *after* the delete would resurrect a dead file.
        self._drop_pending(inode.ino)
        cached_acg = self._file_routes.get(inode.ino)
        try:
            route: Optional[RouteEntry] = self._master_call(
                "file_deleted", inode.ino, local=self.local)
        except DEGRADABLE_ERRORS:
            # The Master itself was unreachable: the mapping (and maybe an
            # index entry) survives the file.  Record the debt — the
            # unlink must not fail because bookkeeping did.
            self.lost_deletes.append(inode.ino)
            self.freshness.forget(inode.ino)
            if self.registry is not None:
                self.registry.counter("cluster.client.lost_deletes").inc()
            return
        # Prefer the Master's answer; fall back to the route cache for
        # client-placed files the Master never learned about.  A node
        # the partition has since left NACKs the delete (it requeues and
        # heals); it never answers for a partition it does not host.
        if route is not None and route.node:
            target_node, target_acg = route.node, route.acg_id
        elif cached_acg is not None:
            target_node, target_acg = self._route_nodes[cached_acg], cached_acg
        else:
            # Never indexed: any stamped-but-unsent change dies with it.
            self.freshness.forget(inode.ino)
            self._forget_file(inode.ino)
            return
        self.freshness.stamp(inode.ino, self.vfs.clock.now())
        # The index entry must go too, or searches would return a
        # path that no longer exists.  If the owning node is dead
        # even after retries the unlink itself must not fail — the
        # stale entry is recorded as debt instead.
        delete = _Send(target_node, UpdateBatch(
            target_acg, (IndexUpdate.delete(inode.ino),), self._route_epoch))
        _, nacked, unreachable = self._scatter_updates([delete])
        if unreachable:
            # The cached owner was unreachable — a failover may already
            # have re-homed the partition.  One route refresh, then retry
            # the new owner before recording the entry as debt.
            try:
                self._refresh_routes()
            except DEGRADABLE_ERRORS:
                pass
            new_node = self._route_nodes.get(target_acg)
            if new_node and new_node != target_node:
                _, nacked, unreachable = self._scatter_updates(
                    [_Send(new_node, delete.batch)])
        if nacked:
            # Mid-migration debris NACKed the delete: queue it for the
            # batched path, which refreshes routes and retries.
            self._requeue(delete.batch.updates, {})
        elif unreachable:
            self.lost_deletes.append(inode.ino)
            self.freshness.forget(inode.ino)
            self._forget_file(inode.ino)
            if self.registry is not None:
                self.registry.counter("cluster.client.lost_deletes").inc()

    def _on_rename(self, old_path: str, new_path: str, inode: Inode) -> None:
        """A rename keeps the inode but changes the path — and therefore
        the keyword index entries — so re-index under the new path if the
        file was indexed (or queued) before."""
        if self._drop_pending(inode.ino) or self._is_indexed(inode.ino):
            attrs: Dict[str, Any] = {name: getattr(inode, name)
                                     for name in _INODE_ATTRS}
            attrs.update(inode.attributes)
            self.freshness.stamp(inode.ino, self.vfs.clock.now())
            self._enqueue(-1, IndexUpdate.upsert(inode.ino, attrs,
                                                 path=new_path))

    def _is_indexed(self, file_id: int) -> bool:
        """Is this file indexed?  The route cache answers for files this
        client placed itself; only unknown files cost a (read-only)
        Master lookup."""
        if file_id in self._file_routes:
            return True
        return bool(self._master_call("lookup_file", [file_id],
                                      local=self.local))

    def _update_for(self, path: str, pid: int = 0) -> Tuple[IndexUpdate, Optional[int]]:
        inode = self.vfs.stat(path)
        attrs: Dict[str, Any] = {name: getattr(inode, name) for name in _INODE_ATTRS}
        attrs.update(inode.attributes)
        hint = self.access_manager.last_file(pid, exclude=inode.ino)
        return IndexUpdate.upsert(inode.ino, attrs, path=path), hint

    def _enqueue(self, hint: int, update: IndexUpdate) -> None:
        """Queue one update, coalescing per file.

        The newest update for a file wins and keeps the earlier entry's
        queue position (and its placement hint, unless the new arrival
        brings one) — a rewrite-then-rewrite burst costs one slot and
        one server-side apply, and an upsert queued behind a delete can
        never resurrect out of order.  The queue flushes when it
        reaches ``batch_size`` or its oldest entry has waited past
        ``batch_age_s``."""
        now = self.vfs.clock.now()
        slot = self._pending_slot.get(update.file_id)
        if slot is not None:
            old_hint = self._pending[slot][0]
            self._pending[slot] = (hint if hint != -1 else old_hint, update)
        else:
            if not self._pending:
                self._pending_since = now
            self._pending_slot[update.file_id] = len(self._pending)
            self._pending.append((hint, update))
        if (len(self._pending) >= self.batch_size
                or (self._pending_since is not None
                    and now - self._pending_since >= self.batch_age_s)):
            self.flush_updates()

    def _drop_pending(self, file_id: int) -> bool:
        """Cancel a file's queued update; says whether there was one
        (rare, so the slots behind it are simply re-numbered)."""
        if self._pending_slot.pop(file_id, None) is None:
            return False
        self._pending = [(h, u) for h, u in self._pending
                         if u.file_id != file_id]
        self._pending_slot = {u.file_id: i
                              for i, (_, u) in enumerate(self._pending)}
        return True

    def index_path(self, path: str, pid: int = 0) -> None:
        """Queue one file for (re)indexing; sent when the batch fills."""
        update, hint = self._update_for(path, pid=pid)
        self.access_manager.discard_dirty(update.file_id)
        self.freshness.stamp(update.file_id, self.vfs.clock.now())
        self._enqueue(hint if hint is not None else -1, update)

    def index_paths(self, paths: Sequence[str], pid: int = 0) -> None:
        """Queue several files for (re)indexing."""
        for path in paths:
            self.index_path(path, pid=pid)

    def index_dirty(self, pid: int = 0) -> int:
        """(Re)index every file the File Access Management module saw a
        close-after-write for since the last drain — already coalesced
        per inode, so a rewrite burst costs one queued update.  Returns
        the number of distinct dirty files queued."""
        from repro.errors import FileNotFound

        dirty = self.access_manager.drain_dirty()
        for _, path in dirty:
            try:
                self.index_path(path, pid=pid)
            except FileNotFound:
                # Unlinked after the drain snapshot: nothing to index.
                continue
        return len(dirty)

    def delete_path_index(self, file_id: int) -> None:
        """Queue removal of one file id from the indices."""
        self.freshness.stamp(file_id, self.vfs.clock.now())
        self._enqueue(-1, IndexUpdate.delete(file_id))

    def flush_updates(self) -> int:
        """Send the queued updates: **one envelope per Index Node, every
        node in flight at once**.

        Routing comes first and stays per update: every update is
        routed — a new file placed — from the cache
        (:meth:`_resolve_local`), grouped per partition and stamped with
        the cached routing epoch; a delete of a file this client never
        placed is located first.  Then every batch bound for one node
        rides a single ``index_update`` RPC and the nodes' RPCs overlap,
        so the flush costs the slowest node's leg, not the sum
        (:meth:`_scatter_updates`).

        The reply is per partition: a node that does not host one NACKs
        that batch alone with :class:`~repro.errors.StaleRoute`, which
        triggers one shared route-table refresh and a re-send where the
        route moved — see :meth:`_heal`.  Everything else re-queues,
        just the partitions it hit, **placement hints intact**.  Returns
        the number of updates actually delivered (acknowledged).

        A search does not call this: its legs carry the envelopes
        (:meth:`_search_raw`) through the same halves — :meth:`_route_pending`,
        then :meth:`_account` and :meth:`_heal`.
        """
        flush_t0 = self.vfs.clock.now()
        sends, hint_of = self._route_pending()
        delivered, _, _ = self._heal(*self._scatter_updates(sends), hint_of)
        self._observe_ack(delivered, flush_t0)
        return delivered

    def _observe_ack(self, delivered: int, t0: float) -> None:
        """Batch acknowledgement latency — what the update_ack SLO
        watches.  Only acknowledged rounds observe: an all-requeued one
        has no ack to time."""
        if delivered > 0 and self.registry is not None:
            self.registry.histogram(
                "cluster.client.update_ack_latency_s").observe(
                    self.vfs.clock.now() - t0)

    def _route_pending(self) -> Tuple[List[_Send], Dict[int, int]]:
        """Take the queue and route it: ``(sends, hint_of)``, the
        per-partition batches with the node each goes to and the
        placement hints a requeue must keep.  Nothing is sent."""
        if not self._pending:
            return [], {}
        pending, self._pending = self._pending, []
        self._pending_slot = {}
        self._pending_since = None
        hint_of: Dict[int, int] = {}
        for h, u in pending:
            hint_of.setdefault(u.file_id, h)
        self._first_contact()
        alloc_state: Dict[str, bool] = {}
        stamped: Dict[Tuple[str, int], List[IndexUpdate]] = {}
        unplaced: List[IndexUpdate] = []
        unrouted_deletes: List[IndexUpdate] = []
        for _, update in pending:
            is_delete = update.op is UpdateOp.DELETE
            acg_id = self._resolve_local(
                update.file_id, hint_of.get(update.file_id, -1), alloc_state,
                place=not is_delete)
            self._note_route(hit=acg_id is not None)
            if acg_id is not None:
                stamped.setdefault(
                    (self._route_nodes[acg_id], acg_id), []).append(update)
            elif is_delete:
                unrouted_deletes.append(update)
            else:
                unplaced.append(update)
        sends = self._stamp(stamped)
        for update in unrouted_deletes:
            sends.extend(self._route_unrouted_delete(update))
        self._requeue(unplaced, hint_of)
        return sends, hint_of

    def _stamp(self, groups: Mapping[Tuple[str, int], Sequence[IndexUpdate]]
               ) -> List[_Send]:
        """One batch per (node, partition) group, stamped with the
        cached routing epoch."""
        return [_Send(node, UpdateBatch(acg_id, tuple(updates),
                                        self._route_epoch))
                for (node, acg_id), updates in groups.items()]

    def _route_unrouted_delete(self, update: IndexUpdate) -> List[_Send]:
        """Find where a DELETE of a file this client never placed must
        go: a read-only Master lookup first, then a cluster presence
        probe for files another client placed.  Returns the
        send (or nothing, when the file is nowhere or the Master could
        not be asked — the latter re-queues it)."""
        target: Optional[Tuple[str, int]] = None
        try:
            acg_id = self._master_call(
                "lookup_file", [update.file_id],
                local=self.local).get(update.file_id)
        except DEGRADABLE_ERRORS:
            self._requeue([update], {})
            return []
        if self._route_nodes.get(acg_id):
            target = (self._route_nodes[acg_id], acg_id)
        if target is None:
            target, complete = self._locate_file(update.file_id)
        if target is None:
            self.freshness.forget(update.file_id)
            self._forget_file(update.file_id)
            if not complete:
                # A node we could not reach may hold the copy: record the
                # debt rather than pretending the delete landed.
                self.lost_deletes.append(update.file_id)
                if self.registry is not None:
                    self.registry.counter("cluster.client.lost_deletes").inc()
            return []
        node, acg_id = target
        return [_Send(node, UpdateBatch(acg_id, (update,), self._route_epoch))]

    def _requeue(self, updates: Sequence[IndexUpdate],
                 hint_of: Dict[int, int]) -> None:
        # Hints ride along on the requeue: a later placement must
        # still honor ACG co-location.
        for update in updates:
            self._pending_slot.setdefault(update.file_id, len(self._pending))
            self._pending.append((hint_of.get(update.file_id, -1), update))
        self.updates_requeued += len(updates)
        if self.registry is not None:
            self.registry.counter(
                "cluster.client.requeued_updates").inc(len(updates))

    def _scatter(self, stage: str, targets: Mapping[str, Any],
                 call: Callable[[str], Any]) -> Dict[str, CallOutcome]:
        """One RPC per node, every node in flight at once, under a
        ``parallel`` span so profiles count only the slowest leg."""
        with self.tracer.span(stage, parallel=True, nodes=len(targets)):
            return scatter(self.vfs.clock, targets, call)

    def _scatter_updates(self, sends: Sequence[_Send]
                         ) -> Tuple[int, List[_Send], List[_Send]]:
        """Ship ``sends`` as one ``index_update`` envelope per Index Node
        — all of a node's batches in a single RPC — with every node in
        flight at once.  The reply is per batch, so this accounts for the
        acks (and counts the NACKs) and returns ``(delivered, nacked,
        unreachable)``: the sends whose partition NACKed
        :class:`StaleRoute`, and those whose node (or, behind a hand-off,
        forwarding target) could not be reached."""
        if not sends:
            return 0, [], []
        envelopes = _envelopes(sends)
        replies = self._scatter(
            "update_scatter", envelopes,
            lambda node: self.rpc.call(
                node, "index_update", _batches(envelopes[node]),
                local=self.local,
                request_bytes=_envelope_bytes(envelopes[node])))
        for reply in replies.values():
            if not reply.ok and not isinstance(reply.error, DEGRADABLE_ERRORS):
                raise reply.error
        return self._account(envelopes, {node: reply.value for node, reply
                                         in replies.items() if reply.ok})

    def _account(self, envelopes: Mapping[str, Sequence[_Send]],
                 replies: Mapping[str, Sequence[CallOutcome]]
                 ) -> Tuple[int, List[_Send], List[_Send]]:
        """The one place envelope replies are read, whatever carried the
        envelope (an ``index_update`` of its own or a search leg):
        ``replies[node]`` holds one outcome per batch, in order; a node
        with no reply could not be reached.  Learns the acks, counts the
        NACKs, returns ``(delivered, nacked, unreachable)``."""
        delivered = 0
        nacked: List[_Send] = []
        unreachable: List[_Send] = []
        for node in sorted(envelopes):
            if not replies.get(node):
                unreachable.extend(envelopes[node])
                continue
            for send, outcome in zip(envelopes[node], replies[node]):
                if outcome.ok:
                    self._learn_ack(outcome.value)
                    delivered += self._sent(send.batch.updates)
                elif isinstance(outcome.error, StaleRoute):
                    self._note_nacks(len(send.batch))
                    nacked.append(send)
                else:
                    unreachable.append(send)
        return delivered, nacked, unreachable

    def _sent(self, updates: Sequence[IndexUpdate]) -> int:
        self.updates_sent += len(updates)
        for update in updates:
            if update.op is UpdateOp.DELETE:
                self._forget_file(update.file_id)
        return len(updates)

    def _heal(self, delivered: int, nacked: List[_Send],
              unreachable: List[_Send],
              hint_of: Dict[int, int]) -> Tuple[int, Set[int], bool]:
        """Heal what a first round of envelopes did not land (the
        arguments are what :meth:`_account` made of its replies).
        Returns the number of updates acknowledged over both rounds, the
        partitions a re-send went to, and whether the route table was
        refreshed on the way.

        The batches that NACKed or found their node unreachable share
        one route refresh, which also settles where their files live
        now.  Each update is then re-sent under the fresh epoch when its
        route genuinely moved — the partition to another node (migration,
        failover) or the file to another partition (split, merge) — and
        re-queued otherwise: the node is down and routing has not moved
        yet, or it missed its ownership grant, which the Master repairs
        from the node's next heartbeat.  The re-sends go out as a second
        scatter; whatever that one cannot land re-queues (hints intact)."""
        failed = nacked + unreachable
        refreshed = False
        if failed:
            try:
                self._refresh_routes()
                refreshed = True
            except DEGRADABLE_ERRORS:
                pass
        moved: Dict[Tuple[str, int], List[IndexUpdate]] = {}
        alloc_state: Dict[str, bool] = {}
        for send in failed:
            old = (send.node, send.batch.acg_id)
            for update in send.batch.updates:
                acg_id = self._resolve_local(
                    update.file_id, hint_of.get(update.file_id, -1),
                    alloc_state, place=update.op is not UpdateOp.DELETE)
                if acg_id is None:
                    acg_id = send.batch.acg_id
                new = (self._route_nodes.get(acg_id), acg_id)
                if refreshed and new[0] and new != old:
                    moved.setdefault(new, []).append(update)
                else:
                    self._requeue([update], hint_of)
        resend = self._stamp(moved)
        landed, nacked, unreachable = self._scatter_updates(resend)
        for send in nacked + unreachable:
            self._requeue(send.batch.updates, hint_of)
        return (delivered + landed,
                {send.batch.acg_id for send in resend}, refreshed)

    # -- ACG flush ----------------------------------------------------------------------

    def process_finished(self, pid: int) -> None:
        """A traced process exited: drop its open history and flush the
        accumulated ACG to the Index Nodes (weakly consistent)."""
        self.access_manager.process_finished(pid)
        self.flush_acg()

    def flush_acg(self) -> int:
        """Push the client-side ACG to the Index Nodes that own each edge.

        Vertices are grouped by their cached route; one with none yet
        goes with its producer, and is left out when that has none
        either (the ACG is weakly consistent; nothing is placed here).
        The fragments then go out like the updates do: one ``flush_acg``
        RPC per node, all nodes at once."""
        acg = self.access_manager.drain()
        if acg.vertex_count == 0:
            return 0
        vertices = sorted(acg.vertices())
        # Producers place consumers: hint each edge target with its source.
        hints: Dict[int, int] = {}
        for u, v, _ in acg.edges():
            hints.setdefault(v, u)
        placement: Dict[int, Tuple[str, int]] = {}
        for file_id in vertices:
            acg_id = self._file_routes.get(file_id)
            self._note_route(hit=acg_id is not None)
            if acg_id is None:
                acg_id = self._file_routes.get(hints.get(file_id, -1))
            if acg_id is not None:
                placement[file_id] = (self._route_nodes[acg_id], acg_id)
        # One envelope per Index Node — all of its partitions' fragments
        # in a single RPC — and every node in flight at once.
        fragments: Dict[str, Dict[int, List[Tuple[int, int, int]]]] = {}

        def add(file_id: int, record: Tuple[int, int, int]) -> None:
            node, acg_id = placement[file_id]
            fragments.setdefault(node, {}).setdefault(acg_id, []).append(record)

        for u, v, w in acg.edges():
            if u in placement:
                add(u, (u, v, w))
        for file_id in vertices:
            if file_id in placement:
                add(file_id, (file_id, -1, 0))
        replies = self._scatter(
            "acg_scatter", fragments,
            lambda node: self.rpc.call(
                node, "flush_acg", tuple(fragments[node].items()),
                local=self.local, request_bytes=envelope_wire_bytes(
                    [12 * len(r) for r in fragments[node].values()])))
        for reply in replies.values():
            reply.unwrap()
        return acg.edge_count

    # -- index DDL ---------------------------------------------------------------------------

    def create_index(self, name: str, kind: IndexKind, attrs: Sequence[str]) -> IndexSpec:
        """Create a user-defined index with a globally unique name."""
        spec = IndexSpec(name=name, kind=kind, attrs=tuple(attrs))
        self._master_call("create_index", spec, local=self.local)
        return spec

    # -- search API -----------------------------------------------------------------------------

    def search(self, query: str, index_name: Optional[str] = None,
               sort_by: Optional[str] = None, descending: bool = False,
               limit: Optional[int] = None,
               deadline_s: Optional[float] = None) -> List[str]:
        """Run an API-form query; returns matching file paths.

        Default order is lexicographic by path.  ``sort_by`` orders by an
        attribute instead (files missing it sort last), ``descending``
        flips the order, and ``limit`` truncates — the result-shaping
        analytics pipelines need ("the 10 biggest segments of the hour").

        ``deadline_s`` opts into partial results under replication: when
        a partition's primary cannot answer, a *lagging* follower's
        answer is accepted instead of failing the leg — but only if it
        arrived within ``deadline_s`` (virtual seconds, measured from
        the start of the search); a partial answer that misses the
        deadline is refused and the leg degrades as if no opt-in were
        given.  The deadline never truncates *sound* answers (a live
        primary or a caught-up follower) — it bounds how late stale data
        may be accepted, not how long the search may run.  Use
        :meth:`search_detailed` to see which partitions were stale.
        """
        results = self._search_raw(self._prepare(query), index_name,
                                   query=query, deadline_s=deadline_s)
        paths = merged_paths(results)
        if sort_by is None:
            return paths[:limit] if limit is not None else paths
        # Attribute ordering needs values: a stat per result path.
        values = self._attribute_values(results, sort_by)
        ordered = sorted(
            paths,
            key=lambda p: ((values.get(p) is None),
                           values.get(p) if values.get(p) is not None else 0,
                           p),
            reverse=descending,
        )
        return ordered[:limit] if limit is not None else ordered

    def search_detailed(self, query: str,
                        index_name: Optional[str] = None,
                        deadline_s: Optional[float] = None) -> SearchAnswer:
        """Like :meth:`search`, but the answer carries its availability
        verdict: whether the fan-out degraded, which partitions and nodes
        the result set is missing when it did, and — under the
        ``deadline_s`` opt-in — which partitions were answered from a
        lagging replica (``partial``/``lagging_partitions``)."""
        paths = self.search(query, index_name=index_name,
                            deadline_s=deadline_s)
        outcome = self.last_outcome
        return SearchAnswer(
            paths=paths,
            degraded=outcome.degraded,
            unreachable_partitions=outcome.unreachable_partitions,
            unreachable_nodes=sorted(outcome.unreachable),
            partial=bool(self._last_lagging),
            lagging_partitions=list(self._last_lagging),
        )

    def _attribute_values(self, results: Sequence[SearchResult],
                          attr: str) -> Dict[str, Any]:
        """Fetch the sort attribute for each result path via stat on the
        shared VFS (paths are live files; their inodes carry the value)."""
        values: Dict[str, Any] = {}
        for result in results:
            for path in result.paths:
                try:
                    inode = self.vfs.stat(path)
                except Exception:
                    continue
                if attr in ("size", "mtime", "ctime", "uid"):
                    values[path] = getattr(inode, attr)
                else:
                    values[path] = inode.attributes.get(attr)
        return values

    def search_directory(self, query_path: str) -> List[str]:
        """Run a dynamic query-directory, e.g. ``/data/?size>1m``.

        The scope prefix restricts results to paths under it.
        """
        scope, predicate = parse_query_directory(query_path)
        paths = merged_paths(
            self._search_raw(PreparedQuery(predicate), None))
        if scope == "/":
            return paths
        prefix = scope.rstrip("/") + "/"
        return [p for p in paths if p.startswith(prefix) or p == scope]

    def select(self, query: str, attributes: Sequence[str],
               index_name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Search with a projection: returns one row per match with the
        requested attributes (plus ``path``), the shape analytics
        pipelines consume directly instead of re-statting every result.

        Missing attributes come back as None.  Rows are ordered by path.
        """
        results = self._search_raw(self._prepare(query), index_name)
        rows: List[Dict[str, Any]] = []
        for path in merged_paths(results):
            try:
                inode = self.vfs.stat(path)
            except Exception:
                continue  # raced with an unlink
            row: Dict[str, Any] = {"path": path}
            for attr in attributes:
                if attr in ("size", "mtime", "ctime", "uid"):
                    row[attr] = getattr(inode, attr)
                else:
                    row[attr] = inode.attributes.get(attr)
            rows.append(row)
        return rows

    def explain(self, query: str,
                index_name: Optional[str] = None) -> Dict[int, List[str]]:
        """EXPLAIN a query: ACG id → the access paths its Index Node
        would use.  Nothing is executed or committed.

        Fans out along the route table like a search, freshly pulled: an
        operator's question should see partitions reshaped since this
        client last routed anything."""
        predicate = self._prepare(query).predicate
        try:
            self._refresh_routes()
        except DEGRADABLE_ERRORS:
            pass   # no Master: the cached table is what a search would use
        names = [index_name] if index_name else None
        out: Dict[int, List[str]] = {}
        for node, acg_ids in sorted(self._placed().items()):
            for acg_id, descriptions in self.rpc.call(
                    node, "explain", acg_ids, predicate, names,
                    local=self.local):
                out[acg_id] = descriptions
        return out

    def search_ids(self, query: str, index_name: Optional[str] = None) -> Set[int]:
        """Like :meth:`search` but returns file ids."""
        results = self._search_raw(self._prepare(query), index_name)
        ids: Set[int] = set()
        for result in results:
            ids |= result.file_ids
        return ids

    def _placed(self, served: AbstractSet[int] = frozenset()
                ) -> Dict[str, List[int]]:
        """node → the partitions the cached route table places on it,
        less the ones already ``served``."""
        routing: Dict[str, List[int]] = {}
        for acg_id, node in self._route_nodes.items():
            if node and acg_id not in served:
                routing.setdefault(node, []).append(acg_id)
        return routing

    def _prepare(self, query: str) -> PreparedQuery:
        """Parse and prepare an API-form query, once per distinct string
        (a malformed one raises ``QueryError`` every time)."""
        return self._queries.get(query, parse_query)

    def _search_raw(self, prepared: PreparedQuery,
                    index_name: Optional[str],
                    query: Optional[str] = None,
                    deadline_s: Optional[float] = None) -> List[SearchResult]:
        clock = self.vfs.clock
        start = clock.now()
        predicate = prepared.predicate   # what the wire carries
        # The partial-answer opt-in is enforced as an *absolute* virtual
        # time: a lagging replica's answer is only accepted if it landed
        # by this instant.  None means "never accept stale data".
        deadline_t = (start + deadline_s) if deadline_s is not None else None
        # Per-search hedge bookkeeping, filled in by the leg closures:
        # which partitions a lagging replica ended up answering for.
        hedge_ctx: Dict[str, Set[int]] = {"lagging": set()}
        with self.tracer.span("search", query=query) as root:
            # Any pending updates of ours must be visible to our own
            # search — so they ride it: routed as a flush routes them,
            # each node's envelope travels inside that node's leg and is
            # parked, fsynced and replicated there before it searches.
            with self.tracer.span("route_pending"):
                sends, hint_of = self._route_pending()
            envelopes = _envelopes(sends)
            self.searches_issued += 1
            self._first_contact()
            self._refresh_summaries()
            # Fan out along the cached route table — every placed
            # partition, since even a zero-size one may have absorbed
            # updates since the table was fetched.  Partitions whose
            # cached summary *proves* they cannot match are asked to be
            # skipped instead of searched: the skip request carries the
            # summary's watermark and the owning node only honours it
            # after re-validating (exact watermark, nothing pending), so
            # pruning can never lose a result — a Bloom false positive
            # or stale summary just costs a searched leg.
            now = clock.now()
            routing: Dict[str, List[int]] = {}
            pruned: Dict[str, Dict[int, Tuple[str, int, int]]] = {}
            for acg_id, node in self._route_nodes.items():
                if not node:
                    continue
                snap = (self._summaries.get(acg_id)
                        if self.prune_searches else None)
                if (snap is not None and not snap.dirty
                        and not summary_may_match(snap, prepared, now)):
                    pruned.setdefault(node, {})[acg_id] = snap.watermark
                else:
                    routing.setdefault(node, []).append(acg_id)
            prune_attempts = sum(len(v) for v in pruned.values())
            # Per-node leg accounting: a failed leg's *pruned* partitions
            # count as unserved too (their skip was never validated), so
            # the retry round re-covers them.
            legs: Dict[str, List[int]] = {n: list(a) for n, a in routing.items()}
            for node, skips in pruned.items():
                legs.setdefault(node, []).extend(sorted(skips))
            for node in envelopes:
                legs.setdefault(node, [])   # an envelope but no leg
            names = [index_name] if index_name else None
            if not legs:
                outcome = FanoutOutcome()
            else:
                # Index Nodes serve their share in parallel (Figure 6);
                # network fan-out overlaps too, which clock.parallel
                # models.  ``parallel=True`` tells the profiler these
                # children overlap: wall time is the slowest leg, not the
                # sum.  Legs that fail transiently after retries degrade
                # the answer instead of failing it (scatter_gather).
                with self.tracer.span("fanout", parallel=True,
                                      nodes=len(legs)) as span:
                    outcome = scatter_gather(
                        clock, legs,
                        lambda n: self._call_search_leg(
                            n, routing.get(n, []), pruned.get(n) or None,
                            predicate, names, hedge_ctx, deadline_t,
                            envelopes.get(n, ())))
                    if outcome.degraded:
                        span.set_attribute(
                            "unreachable", sorted(outcome.unreachable))
            # The carried envelopes' replies take the flush's own
            # accounting and healing; what had to be re-sent is searched
            # again below, so the answer still sees the write.
            delivered, resent, refreshed = self._heal(
                *self._account(envelopes, outcome.update_outcomes), hint_of)
            self._observe_ack(delivered, start)
            if (outcome.stale or outcome.unreachable or resent
                    or outcome.max_node_epoch() > self._route_epoch):
                outcome = self._retry_search(clock, outcome, predicate, names,
                                             hedge_ctx, deadline_t,
                                             resent, refreshed)
            results = list(outcome.results)
        self.last_outcome = outcome
        self._last_lagging = sorted(hedge_ctx["lagging"])
        if self._last_lagging:
            self.journal.emit("search.partial",
                              lagging=list(self._last_lagging))
        if outcome.degraded:
            self.journal.emit(
                "search.degraded",
                unreachable_partitions=sorted(
                    outcome.unreachable_partitions),
                unreachable_nodes=sorted(outcome.unreachable))
        if self.registry is not None:
            self.registry.counter("cluster.client.searches").inc()
            if sends:
                self.registry.counter("cluster.client.searches_carrying").inc()
                self.registry.counter("cluster.client.updates_carried").inc(
                    sum(len(send.batch) for send in sends))
            if self._last_lagging:
                self.registry.counter("cluster.client.partial_searches").inc()
            if outcome.degraded:
                self.registry.counter("cluster.client.degraded_searches").inc()
                self.registry.counter(
                    "cluster.client.unreachable_partitions").inc(
                        len(outcome.unreachable_partitions))
            if prune_attempts:
                self.registry.counter("search.prune_attempts").inc(
                    prune_attempts)
            self.registry.counter("search.partitions_pruned").inc(
                len(outcome.pruned_ok))
            self.registry.counter("search.partitions_searched").inc(
                len(results))
            self.registry.histogram("cluster.client.search_latency_s").observe(
                clock.now() - start)
        return results

    def _call_search_leg(self, node: str, acg_ids: List[int],
                         pruned: Optional[Dict[int, Tuple[str, int, int]]],
                         predicate: Predicate, names: Optional[List[str]],
                         hedge_ctx: Dict[str, Set[int]],
                         deadline_t: Optional[float],
                         envelope: Sequence[_Send] = ()):
        """One search leg, hedged to a follower replica when possible.

        Without a hedging policy (RF = 1) this is exactly the historical
        single call.  With one, the primary's call races a follower: the
        hedge launches only if the primary is still outstanding after
        the policy's p95-derived delay, and the first *sound* answer
        wins.  The follower searches the pruned partitions too (it
        cannot validate summary skips), so a follower answer is always
        oracle-equal to an unpruned primary answer.

        A leg that carries an ``envelope`` of pending updates is charged
        for its length, is never raced and never feeds the hedge timer:
        no follower can be sound for writes not yet acked, and the leg
        contains a replication round trip.  A follower is only asked if
        the primary cannot be reached (the envelope then re-queues)."""
        policy = self.hedging
        leg_acgs = sorted(set(acg_ids) | set(pruned or ()))
        secondary = (self._hedge_secondary(node, leg_acgs)
                     if policy is not None and policy.enabled else None)
        clock = self.vfs.clock
        leg_start = clock.now()
        kwargs: Dict[str, Any] = dict(local=self.local,
                                      epoch=self._route_epoch, pruned=pruned)
        if envelope:
            kwargs.update(updates=_batches(envelope),
                          request_bytes=(DEFAULT_MSG_BYTES
                                         + _envelope_bytes(envelope)))
        if secondary is None:
            reply = self.rpc.call(node, "search", acg_ids, predicate,
                                  names, **kwargs)
            if policy is not None and not envelope:
                policy.observe(clock.now() - leg_start)
            return reply
        min_seqs = {a: self._repl_seq_seen[a] for a in leg_acgs
                    if self._repl_seq_seen.get(a)}
        if envelope:
            primary = CallOutcome.capture(
                lambda: self.rpc.call(node, "search", acg_ids, predicate,
                                      names, **kwargs), (NodeDown, RpcTimeout))
            if primary.ok:
                return primary.value
            out = HedgedOutcome(primary=primary, primary_end=clock.now())
        else:
            out = self.rpc.hedged_call(
                node, secondary, "search", policy.delay_s(),
                acg_ids, predicate, names,
                secondary_method="search_replica",
                secondary_args=(leg_acgs, predicate, names, min_seqs),
                secondary_kwargs={"local": self.local}, **kwargs)
        if not out.hedged and not out.primary.ok:
            # The primary failed *before* the hedge timer (a dead node
            # fails instantly without a retry policy), so the race never
            # launched the follower — rescue-call it directly: it is the
            # only path left to an answer for this leg.
            try:
                value = self.rpc.call(secondary, "search_replica",
                                      leg_acgs, predicate, names, min_seqs,
                                      local=self.local)
            except ClusterError:
                pass  # leg degrades on the primary's original error
            else:
                if self.registry is not None:
                    self.registry.counter("cluster.client.hedge_rescues").inc()
                out = HedgedOutcome(
                    primary=out.primary,
                    secondary=CallOutcome(ok=True, value=value),
                    primary_end=out.primary_end,
                    secondary_end=clock.now(), hedged=True)
        return self._resolve_hedge(clock, leg_start, out, policy,
                                   hedge_ctx, deadline_t)

    def _hedge_secondary(self, primary: str,
                         acg_ids: List[int]) -> Optional[str]:
        """The follower node to hedge a leg to: one that (per the cached
        route table) follows *every* partition in the leg — a partial
        cover would come back ``missing`` and be unusable anyway."""
        if not acg_ids:
            return None
        counts: Dict[str, int] = {}
        for acg_id in acg_ids:
            for replica in self._route_replicas.get(acg_id, ()):
                if replica != primary:
                    counts[replica] = counts.get(replica, 0) + 1
        full = sorted(n for n, c in counts.items() if c == len(acg_ids))
        return full[0] if full else None

    def _resolve_hedge(self, clock, leg_start: float, out, policy,
                       hedge_ctx: Dict[str, Set[int]],
                       deadline_t: Optional[float]):
        """Pick the leg's answer from a hedged race.

        Soundness order: the primary's answer is always sound; a
        follower's is sound when it covers every requested partition at
        or above this client's acked watermark.  The first sound
        finisher wins (the loser's remaining time is not waited for).  A
        *lagging* follower answer is a last resort, accepted only under
        the partial-results opt-in when the primary failed outright,
        and only if it arrived by ``deadline_t`` (the absolute
        virtual-time deadline derived from the search's ``deadline_s``)
        — stale data that also missed the deadline has no value left.
        Accepted lagging answers are recorded in ``hedge_ctx`` so the
        caller can mark the answer partial."""
        primary = out.primary
        if primary.ok:
            policy.observe(out.primary_end - leg_start)
        if not out.hedged:
            if primary.ok:
                return primary.value
            raise primary.error
        secondary = out.secondary
        reply = secondary.value if secondary.ok else None
        covers = reply is not None and not reply.missing
        sound = covers and not reply.lagging
        if primary.ok and (not sound
                           or out.primary_end <= out.secondary_end):
            clock.advance_to(out.primary_end)
            return primary.value
        if sound:
            clock.advance_to(out.secondary_end)
            return HedgedReply(node=reply.node, epoch=reply.epoch,
                               results=reply.results, from_replica=True)
        if (covers and deadline_t is not None
                and out.secondary_end <= deadline_t):
            clock.advance_to(out.secondary_end)
            hedge_ctx["lagging"].update(reply.lagging)
            return HedgedReply(node=reply.node, epoch=reply.epoch,
                               results=reply.results, from_replica=True,
                               lagging=tuple(reply.lagging))
        raise primary.error

    def _retry_search(self, clock, outcome: FanoutOutcome,
                      predicate: Predicate,
                      names: Optional[List[str]],
                      hedge_ctx: Dict[str, Set[int]],
                      deadline_t: Optional[float] = None,
                      resent: AbstractSet[int] = frozenset(),
                      refreshed: bool = False) -> FanoutOutcome:
        """One retry round after a stale fan-out: refresh the route table
        and re-query only the partitions the first round didn't serve.

        Validated skips (``pruned_ok``) count as served; the retry round
        itself never prunes — after a stale first round the summaries
        are suspect, so it fails open and searches everything left.  The
        retry legs go through the same hedged path as the first round:
        the refreshed route table carries the current replica sets, so a
        leg whose primary is down can still be rescued by a follower.

        ``resent`` names partitions whose carried updates only landed
        with a healing re-send, after the first round had searched them:
        their first-round answers are dropped and asked again.
        ``refreshed``: healing already pulled the route table."""
        self._note_nacks(sum(len(v) for v in outcome.stale.values()))
        if not refreshed:
            try:
                self._refresh_routes()
            except DEGRADABLE_ERRORS:
                return outcome
        results = [r for r in outcome.results if r.acg_id not in resent]
        pruned_ok = outcome.pruned_ok - resent
        routing = self._placed({r.acg_id for r in results} | pruned_ok)
        if not routing:
            # Everything still placed was already answered; the failed
            # legs covered partitions the fresh table no longer lists.
            return FanoutOutcome(results=results,
                                 node_epochs=dict(outcome.node_epochs),
                                 pruned_ok=pruned_ok)
        with self.tracer.span("fanout_retry", parallel=True,
                              nodes=len(routing)):
            retry = scatter_gather(
                clock, routing,
                lambda n: self._call_search_leg(
                    n, routing[n], None, predicate, names,
                    hedge_ctx, deadline_t))
        return FanoutOutcome(
            results=results + list(retry.results),
            unreachable=retry.unreachable,
            errors=retry.errors,
            stale=retry.stale,
            node_epochs={**outcome.node_epochs, **retry.node_epochs},
            pruned_ok=pruned_ok | retry.pruned_ok)

    def profile_search(self, query: str,
                       index_name: Optional[str] = None):
        """Run one search under tracing and return its
        :class:`~repro.obs.profile.QueryProfile` (EXPLAIN ANALYZE).

        Requires tracing to be enabled on the deployment
        (``service.enable_tracing()``); the no-op tracer keeps no spans
        to profile.
        """
        from repro.obs.profile import QueryProfile

        if not self.tracer.enabled:
            raise ClusterError(
                "tracing is disabled: call service.enable_tracing() before "
                "profiling a query")
        self.search(query, index_name=index_name)
        root = self.tracer.last_root("search")
        assert root is not None  # the search above just recorded one
        return QueryProfile(root, query=query)
