"""Service façade: wires a whole Propeller deployment together.

One call builds the paper's testbed in simulation: a Master Node machine,
``num_index_nodes`` Index Node machines behind a simulated gigabit switch,
the periodic background work (cache-timeout commits, heartbeats, Master
metadata checkpoints), and clients mounting the shared VFS.  Single-node
mode co-locates the Master and one Index Node on the same machine with
loopback RPC — the configuration used for the MySQL and Spotlight
comparisons.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from repro.cluster.cache import DEFAULT_TIMEOUT_S
from repro.cluster.client import PropellerClient
from repro.cluster.index_node import IndexNode
from repro.cluster.master import STANDBY_TICK_S, MasterNode
from repro.core.partitioner import PartitioningPolicy
from repro.fs.vfs import VirtualFileSystem
from repro.obs.freshness import NULL_FRESHNESS, FreshnessTracker
from repro.obs.health import HealthMonitor
from repro.obs.journal import EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloTracker
from repro.obs.timeline import NULL_TIMELINE, TimelineRecorder
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop, PeriodicTask
from repro.sim.machine import Cluster, MachineSpec
from repro.sim.objectstore import SimObjectStore
from repro.sim.rpc import RetryPolicy, RpcNetwork

HEARTBEAT_PERIOD_S = 5.0
CHECKPOINT_PERIOD_S = 30.0


class PropellerService:
    """A running Propeller deployment (simulated)."""

    def __init__(self, num_index_nodes: int = 1,
                 spec: Optional[MachineSpec] = None,
                 policy: Optional[PartitioningPolicy] = None,
                 single_node: bool = False,
                 retry_policy: Optional[RetryPolicy] = None,
                 rpc_seed: int = 0,
                 auto_failover: bool = False,
                 replication_factor: int = 1,
                 standby_master: bool = False) -> None:
        if num_index_nodes < 1:
            raise ValueError("need at least one index node")
        if replication_factor > num_index_nodes:
            raise ValueError(
                f"replication factor {replication_factor} needs at least "
                f"that many index nodes (have {num_index_nodes})")
        if standby_master and single_node:
            raise ValueError("a warm standby needs its own machine "
                             "(standby_master requires single_node=False)")
        self.replication_factor = replication_factor
        self.policy = policy if policy is not None else PartitioningPolicy()
        self.single_node = single_node and num_index_nodes == 1
        self.standby_enabled = standby_master
        index_node_names = [f"in{i}" for i in range(1, num_index_nodes + 1)]
        machine_names = index_node_names if self.single_node else (["mn"] + index_node_names)
        if standby_master:
            machine_names = machine_names + ["mn2"]
        self.cluster = Cluster(machine_names, spec=spec)
        self.clock: SimClock = self.cluster.clock
        self.loop = EventLoop(self.clock)
        # Observability: one registry for the whole deployment; tracing
        # defaults to the free no-op tracer (enable_tracing swaps it in).
        self.registry = MetricsRegistry()
        # The RPC layer's backoff jitter comes from a dedicated seeded
        # RNG so two runs of the same deployment burn identical virtual
        # time (the chaos determinism contract).
        self.rpc = RpcNetwork(self.cluster.network,
                              retry_policy=retry_policy,
                              rng=random.Random(rpc_seed),
                              registry=self.registry)
        self.tracer = NULL_TRACER
        self.timeline = NULL_TIMELINE
        self.freshness = NULL_FRESHNESS
        # The health plane is always on: the journal, SLO tracker, and
        # health monitor charge zero simulated time and draw no
        # randomness, so they can never change a benchmark's numbers or
        # break the chaos determinism contract.
        self.journal = EventJournal(self.clock)
        master_machine = self.cluster["in1"] if self.single_node else self.cluster["mn"]
        self.master = MasterNode(master_machine, self.rpc, policy=self.policy,
                                 registry=self.registry,
                                 auto_failover=auto_failover,
                                 replication_factor=replication_factor,
                                 journal=self.journal,
                                 peer="master2" if standby_master else None)
        # ``masters`` lists every Master process, acting first at boot;
        # ``self.master`` always points at the one the deployment
        # currently believes is acting (re-pointed on standby promotion).
        self.masters: List[MasterNode] = [self.master]
        if standby_master:
            standby = MasterNode(self.cluster["mn2"], self.rpc,
                                 policy=self.policy,
                                 registry=self.registry,
                                 auto_failover=auto_failover,
                                 replication_factor=replication_factor,
                                 journal=self.journal,
                                 endpoint_name="master2", peer="master",
                                 acting=False)
            self.masters.append(standby)
        for m in self.masters:
            m._on_promote = self._master_promoted
        # Tiered storage (frozen cold partitions on a simulated object
        # store).  One shared store for the deployment — keys are
        # namespaced per node — flipped service-wide by
        # :meth:`set_tiering`; off by default.
        self.tiering = False
        self.object_store = SimObjectStore(self.clock)
        # The shared VFS: clients mount it, and it is the shared storage
        # every Index Node checkpoints to (Figure 5).
        self.vfs = VirtualFileSystem(self.clock)
        self.index_nodes: Dict[str, IndexNode] = {}
        for name in index_node_names:
            node = IndexNode(name, self.cluster[name], self.rpc, self.vfs,
                             self.object_store, self.registry,
                             journal=self.journal)
            self.rpc.add_endpoint(node.endpoint)
            self.master.register_index_node(name)
            self.index_nodes[name] = node
        if standby_master:
            # Bootstrap the standby's tail before any client traffic:
            # the initial pull installs a snapshot of the membership
            # records above and arms the acting Master's synchronous
            # push stream, so the standby is exactly current from the
            # first mutation on — a promotion can never start from a
            # stale (or empty) MetaState, however early the crash.
            self.masters[1].standby_tick()
        self._clients: List[PropellerClient] = []
        self._tasks = [
            PeriodicTask(self.loop, DEFAULT_TIMEOUT_S / 2, self._tick_caches),
            PeriodicTask(self.loop, HEARTBEAT_PERIOD_S, self._poll_heartbeats),
            PeriodicTask(self.loop, CHECKPOINT_PERIOD_S, self._checkpoint_all),
        ]
        if standby_master:
            self._tasks.append(
                PeriodicTask(self.loop, STANDBY_TICK_S, self._standby_ticks))
        # The SLO tracker looks its metrics up only when it samples, so
        # it finds the health monitor's gauges (cluster.health.*) though
        # it is built first.
        self.slos = SloTracker(self.clock, self.registry, journal=self.journal)
        self.health = HealthMonitor(self.clock, self.registry, self.master,
                                    self.index_nodes, journal=self.journal,
                                    slos=self.slos)
        self._register_metrics()

    # -- observability --------------------------------------------------------

    def _register_metrics(self) -> None:
        """Publish the deployment's live state into the metrics registry.

        Callable gauges read the same structures the components already
        maintain, so the registry can never drift from ground truth and
        registration charges zero simulated time.
        """
        reg = self.registry
        reg.gauge_fn("cluster.virtual_time_s", self.clock.now)
        reg.gauge_fn("cluster.indexed_files", self.total_indexed_files)
        reg.gauge_fn("cluster.master.partitions",
                     lambda: len(self.master.partitions))
        reg.gauge_fn("cluster.master.split_decisions",
                     lambda: len(self.master.splits))
        reg.gauge_fn("cluster.master.checkpoints_written",
                     lambda: self.master.checkpoints_written)
        # Routing-epoch health: the current epoch, how many routing
        # round-trips the Master served per indexed update (the hot-path
        # cost the epoch protocol shrinks), how well client route caches
        # hit, and how far behind the most-stale client cache runs.
        reg.gauge_fn("cluster.master.epoch",
                     lambda: self.master.partitions.epoch)
        reg.gauge_fn("cluster.master.migrations_completed",
                     lambda: sum(1 for e in self.master.journal.payloads(
                         "migration.start") if e.outcome == "done"))
        reg.gauge_fn("cluster.master.route_rpcs_per_update",
                     self._route_rpcs_per_update)
        reg.gauge_fn("cluster.client.route_cache_hit_rate",
                     self._route_cache_hit_rate)
        reg.gauge_fn("cluster.client.route_epoch_age",
                     self._route_epoch_age)
        network = self.cluster.network
        reg.gauge_fn("cluster.network.messages",
                     lambda: network.stats.messages)
        reg.gauge_fn("cluster.network.bytes_sent",
                     lambda: network.stats.bytes_sent)
        # Tiered storage: cold-tier occupancy/traffic and the simulated
        # dollar cost of the object store (all zero with tiering off).
        store = self.object_store
        reg.gauge_fn("tier.object_store.bytes", store.stored_bytes)
        reg.gauge_fn("tier.object_store.objects", lambda: len(store.keys()))
        reg.gauge_fn("tier.object_store.gets", lambda: store.stats.gets)
        reg.gauge_fn("tier.object_store.puts", lambda: store.stats.puts)
        reg.gauge_fn("tier.object_store.errors", lambda: store.stats.errors)
        reg.gauge_fn("tier.object_store.cost_usd", store.simulated_cost_usd)
        reg.gauge_fn("tier.frozen_partitions",
                     lambda: sum(len(n.frozen)
                                 for n in self.index_nodes.values()))
        reg.gauge_fn("tier.segment_cache.hit_rate",
                     self._segment_cache_hit_rate)
        # What the lazy segment views had to decode, and how often the
        # caches made room by dropping decoded state instead of bytes.
        reg.gauge_fn("tier.rows_decoded",
                     lambda: sum(n.tier_rows_decoded
                                 for n in self.index_nodes.values()))
        reg.gauge_fn("tier.postings_decoded",
                     lambda: sum(n.tier_postings_decoded
                                 for n in self.index_nodes.values()))
        reg.gauge_fn("tier.views_shed",
                     lambda: sum(n.segment_cache.stats.sheds
                                 for n in self.index_nodes.values()))
        for name, node in self.index_nodes.items():
            self._register_node_metrics(name, node)

    def _register_node_metrics(self, name: str, node: IndexNode) -> None:
        reg = self.registry
        prefix = f"cluster.{name}"
        reg.gauge_fn(f"{prefix}.acgs", lambda n=node: len(n.replicas))
        reg.gauge_fn(f"{prefix}.files",
                     lambda n=node: sum(r.file_count for r in n.replicas.values()))
        reg.gauge_fn(f"{prefix}.resident_bytes",
                     lambda n=node: n._resident_bytes)
        reg.gauge_fn(f"{prefix}.cache.pending", lambda n=node: len(n.cache))
        reg.gauge_fn(f"{prefix}.cache.timeout_commits",
                     lambda n=node: n.cache.stats.timeout_commits)
        reg.gauge_fn(f"{prefix}.cache.search_commits",
                     lambda n=node: n.cache.stats.search_commits)
        reg.gauge_fn(f"{prefix}.wal.bytes", lambda n=node: len(n.wal))
        # Group-commit leverage: how many simulated fsyncs the log paid
        # and how many bytes each one carried (per-update logging sits
        # near the frame size; batching drives bytes/fsync up).
        reg.gauge_fn(f"{prefix}.wal.fsyncs", lambda n=node: n.wal.fsyncs)
        reg.gauge_fn(f"{prefix}.wal.bytes_per_fsync",
                     lambda n=node: n.wal.bytes_written / max(1, n.wal.fsyncs))
        reg.gauge_fn(f"{prefix}.wal.replay_dropped",
                     lambda n=node: n.wal_replay_dropped_total)
        reg.gauge_fn(f"{prefix}.wal.replay_skipped",
                     lambda n=node: n.wal_replay_skipped_total)
        reg.gauge_fn(f"{prefix}.forwarded_updates",
                     lambda n=node: n.forwarded_updates)
        reg.gauge_fn(f"{prefix}.stale_route_nacks",
                     lambda n=node: n.stale_route_nacks)
        reg.gauge_fn(f"{prefix}.route_epoch_seen",
                     lambda n=node: n.route_epoch_seen)
        reg.gauge_fn(f"{prefix}.disk.reads",
                     lambda n=node: n.machine.disk.stats.reads)
        reg.gauge_fn(f"{prefix}.disk.writes",
                     lambda n=node: n.machine.disk.stats.writes)
        reg.gauge_fn(f"{prefix}.partitions_pruned",
                     lambda n=node: n.prunes_validated)
        reg.gauge_fn(f"{prefix}.prune_fallbacks",
                     lambda n=node: n.prune_fallbacks)
        reg.gauge_fn(f"{prefix}.up", lambda n=node: n.endpoint.up)
        # Replication health (all zero at RF = 1): follower replicas
        # hosted here, records streamed out as a primary, and catch-up
        # sends (snapshot installs or log re-sends) that landed.
        reg.gauge_fn(f"{prefix}.repl.followers",
                     lambda n=node: len(n.followers))
        reg.gauge_fn(f"{prefix}.repl.streamed",
                     lambda n=node: n.repl_streamed)
        reg.gauge_fn(f"{prefix}.repl.catchups",
                     lambda n=node: n.repl_catchups)
        # Per-tier byte accounting (the memory-tier table `repro profile`
        # and `repro status` render) plus tiering health counters.
        reg.gauge_fn(f"{prefix}.cache.pending_bytes",
                     lambda n=node: n.cache.estimated_bytes())
        reg.gauge_fn(f"{prefix}.cache.flush_commits",
                     lambda n=node: n.cache.stats.flush_commits)
        reg.gauge_fn(f"{prefix}.tier.frozen", lambda n=node: len(n.frozen))
        reg.gauge_fn(f"{prefix}.tier.frozen_bytes",
                     lambda n=node: n.frozen_bytes())
        reg.gauge_fn(f"{prefix}.tier.segment_cache_bytes",
                     lambda n=node: n.segment_cache.estimated_bytes())
        reg.gauge_fn(f"{prefix}.tier.segment_cache_decoded_bytes",
                     lambda n=node: n.segment_cache.decoded_bytes())
        reg.gauge_fn(f"{prefix}.tier.segment_cache_hit_rate",
                     lambda n=node: n.segment_cache.stats.hit_rate())
        reg.gauge_fn(f"{prefix}.tier.freezes", lambda n=node: n.tier_freezes)
        reg.gauge_fn(f"{prefix}.tier.thaws", lambda n=node: n.tier_thaws)
        reg.gauge_fn(f"{prefix}.tier.hydrations",
                     lambda n=node: n.tier_hydrations)
        reg.gauge_fn(f"{prefix}.tier.fallbacks",
                     lambda n=node: n.tier_fallbacks)
        reg.gauge_fn(f"{prefix}.tier.summary_prunes",
                     lambda n=node: n.tier_summary_prunes)
        reg.gauge_fn(f"{prefix}.tier.repairs", lambda n=node: n.tier_repairs)

    def enable_tracing(self, tracer: Optional[Tracer] = None) -> Tracer:
        """Thread a span tracer through every component and return it.

        Tracing charges zero simulated time — only Python-side
        bookkeeping — so enabling it never changes benchmark numbers.
        """
        tracer = tracer if tracer is not None else Tracer(
            self.clock, registry=self.registry)
        self.tracer = tracer
        self.rpc.tracer = tracer
        self.master.tracer = tracer
        self.master.machine.disk.tracer = tracer
        # The journal stamps the active span id onto every event, and
        # the SLO tracker wraps its alerts in a span of their own.
        self.journal.tracer = tracer
        self.slos.tracer = tracer
        for node in self.index_nodes.values():
            node.set_tracer(tracer)
        for client in self._clients:
            client.tracer = tracer
        return tracer

    def enable_timeline(self, interval_s: float = 1.0,
                        timeline: Optional[TimelineRecorder] = None) -> TimelineRecorder:
        """Record per-metric time series as virtual time advances.

        The default series are the ones the paper's figures track over
        time: dirty-partition backlog, per-node load skew, cache hit
        rate, indexed files, and failovers.  Sampling is driven from
        :meth:`pump`/:meth:`advance` and charges zero simulated time, so
        (like tracing) enabling a timeline never changes benchmark
        numbers.
        """
        timeline = timeline if timeline is not None else TimelineRecorder(
            self.clock, interval_s=interval_s)
        timeline.track("dirty_backlog", self._dirty_backlog)
        timeline.track("load_skew", self._load_skew)
        timeline.track("cache_hit_rate", self._cache_hit_rate)
        timeline.track("indexed_files", self.total_indexed_files)
        timeline.track("failovers", self._failover_count)
        timeline.track("degraded_searches",
                       lambda: self._counter_value("cluster.client.degraded_searches"))
        timeline.track("rpc_retries",
                       lambda: self._counter_value("cluster.rpc.retries"))
        self.timeline = timeline
        return timeline

    def enable_freshness(self, tracker: Optional[FreshnessTracker] = None) -> FreshnessTracker:
        """Track change-to-search-visible staleness on every node.

        Clients stamp close/update events; Index Nodes resolve them when
        the update commits into real indices.  Zero simulated cost.
        """
        tracker = tracker if tracker is not None else FreshnessTracker(self.registry)
        self.freshness = tracker
        for node in self.index_nodes.values():
            node.freshness = tracker
        for client in self._clients:
            client.set_freshness(tracker)
        return tracker

    # Timeline sources: each reads live state the deployment already
    # maintains, so sampling can never drift from ground truth.

    def _dirty_backlog(self) -> int:
        """Updates sitting in Index Caches, not yet in real indices."""
        return sum(len(node.cache) for node in self.index_nodes.values()
                   if node.endpoint.up)

    def _load_skew(self) -> float:
        """Max-over-mean indexed files across live nodes (1.0 = balanced)."""
        counts = [sum(r.file_count for r in node.replicas.values())
                  for node in self.index_nodes.values() if node.endpoint.up]
        if not counts or not sum(counts):
            return 1.0
        return max(counts) / (sum(counts) / len(counts))

    def _cache_hit_rate(self) -> float:
        """Aggregate page-cache hit rate over the Index Node machines."""
        hits = accesses = 0
        for node in self.index_nodes.values():
            stats = node.machine.page_cache.stats
            hits += stats.hits
            accesses += stats.accesses
        return hits / accesses if accesses else 0.0

    def _failover_count(self) -> int:
        return self._counter_value("cluster.master.failovers")

    def _route_rpcs_per_update(self) -> float:
        """Master routing round-trips per update actually indexed — the
        Figure-9 hot-path cost; the epoch protocol drives it toward
        1/batch-size ÷ slab-size territory."""
        updates = sum(c.updates_sent for c in self._clients)
        return self._counter_value("cluster.master.route_rpcs") / max(1, updates)

    def _route_cache_hit_rate(self) -> float:
        hits = sum(c.route_cache_hits for c in self._clients)
        misses = sum(c.route_cache_misses for c in self._clients)
        return hits / (hits + misses) if hits + misses else 0.0

    def _segment_cache_hit_rate(self) -> float:
        """Aggregate segment-cache hit rate across nodes (tiering on)."""
        hits = sum(n.segment_cache.stats.hits
                   for n in self.index_nodes.values())
        misses = sum(n.segment_cache.stats.misses
                     for n in self.index_nodes.values())
        return hits / (hits + misses) if hits + misses else 0.0

    def memory_tiers(self) -> List[Dict[str, object]]:
        """Per-node byte accounting across the storage tiers — the table
        ``repro profile`` and ``repro status`` render.

        Tiers per node: live resident replicas (RAM), the segment
        cache (RAM) split into the segment bytes it holds and the state
        searches have decoded from them, the uncommitted index-cache
        buffer (RAM), the WAL (local disk), and frozen segments (cold
        object store).
        """
        rows: List[Dict[str, object]] = []
        for name in sorted(self.index_nodes):
            node = self.index_nodes[name]
            decoded = node.segment_cache.decoded_bytes()
            rows.append({
                "node": name,
                "ram_budget": node.machine.spec.ram_bytes,
                "resident": node._resident_bytes,
                "segment_cache_bytes":
                    node.segment_cache.estimated_bytes() - decoded,
                "segment_cache_decoded": decoded,
                "index_cache": node.cache.estimated_bytes(),
                "wal": len(node.wal),
                "frozen": node.frozen_bytes(),
                "frozen_acgs": len(node.frozen),
            })
        return rows

    def _route_epoch_age(self) -> int:
        """How many epochs behind the most-stale client cache runs."""
        current = self.master.partitions.epoch
        if not self._clients:
            return 0
        return max(current - c._route_epoch for c in self._clients)

    def _counter_value(self, name: str) -> int:
        return self.registry.value(name) if name in self.registry else 0

    # -- background machinery -------------------------------------------------

    def _tick_caches(self) -> None:
        for node in self.index_nodes.values():
            if node.endpoint.up:
                node.tick()
        # Reap freshness stamps whose updates died with a failed node
        # (acked, never committed anywhere) so the pending map can't leak.
        self.freshness.expire(self.clock.now())

    def _poll_heartbeats(self) -> List[str]:
        """One heartbeat round, acting Master first.

        The order is the split-brain settler: the acting Master's
        term-stamped polls teach every node the newest term, so when a
        deposed-but-alive Master (restarted from its own log, or back
        from a partition) polls right after, its stale stamp is fenced
        and it self-deposes — one heartbeat period bounds the window in
        which two processes both believe they are acting."""
        result: List[str] = []
        if self.master.endpoint.up:
            result = self.master.poll_heartbeats()
        for m in self.masters:
            if m is not self.master and m.acting and m.endpoint.up:
                m.poll_heartbeats()
        return result

    def _standby_ticks(self) -> None:
        """Drive every non-acting Master's lease/tail heartbeat."""
        for m in self.masters:
            if not m.acting and m.endpoint.up:
                m.standby_tick()

    def _master_promoted(self, master: MasterNode) -> None:
        """Re-point the deployment at a freshly promoted Master."""
        self.master = master
        self.health.master = master

    def crash_master(self) -> None:
        """Kill the acting Master process (fault injection).

        In-memory soft state dies with it; the meta-WAL survives as its
        durable state.  Clients and the standby see ``NodeDown`` until
        :meth:`restart_master` (or a standby promotion) brings an acting
        Master back."""
        victim = self.master
        victim.endpoint.fail()
        self.journal.emit("node.crash", node=victim.endpoint.name,
                          mode="master_process")

    def restart_master(self, name: Optional[str] = None) -> None:
        """Restart a crashed Master from its meta-WAL.

        The replayed term record decides its role: if a standby promoted
        past it while it was down, the restarted Master still *believes*
        it is acting (its own log says so) — the next term-stamped
        heartbeat round fences it and it rejoins as a standby.  That is
        the designed path, not an error: fencing, not the supervisor, is
        what makes the hand-off safe."""
        for m in self.masters:
            if name is not None and m.endpoint.name != name:
                continue
            if not m.endpoint.up:
                m.endpoint.recover()
                m.crash_restart()

    def _standby_lag(self) -> Optional[int]:
        """Meta-log records the furthest-behind live standby still has
        to apply (None when no live standby exists)."""
        lags = [self.master.meta_wal.seq - (m._tail_seq or 0)
                for m in self.masters
                if m is not self.master and not m.acting and m.endpoint.up]
        return max(lags) if lags else None

    def master_status(self) -> Dict[str, object]:
        """JSON-ready control-plane snapshot: term, roles, standby lag,
        and the failover/fencing counters."""
        fences = sum(n.master_fences for n in self.index_nodes.values())
        return {
            "term": self.master.term,
            "acting": self.master.endpoint.name,
            "roles": {
                m.endpoint.name: {
                    "role": "acting" if m.acting else "standby",
                    "up": m.endpoint.up,
                    "term": m.term,
                }
                for m in self.masters
            },
            "meta_wal_seq": self.master.meta_wal.seq,
            "standby_lag": self._standby_lag(),
            "promotions": self._counter_value(
                "cluster.master.standby_promotions"),
            "deposed": self._counter_value("cluster.master.deposed"),
            "restarts": self._counter_value("cluster.master.restarts"),
            "fences": fences,
        }

    def _checkpoint_all(self) -> None:
        """Periodic durability: Master metadata (partition records plus
        the meta-WAL snapshot — see ``MasterNode.checkpoint``) and every
        node's ACGs, with their uncommitted updates as a pending tail, go
        to the shared file system.  Nothing is committed, so visibility
        does not depend on when a checkpoint lands."""
        if self.master.endpoint.up and self.master.acting:
            self.master.checkpoint()
        for node in self.index_nodes.values():
            if node.endpoint.up:
                node.checkpoint_to_shared()

    def fail_node(self, name: str) -> None:
        """Kill one Index Node (fault injection); its ACGs stay on shared
        storage until :meth:`failover` reassigns them."""
        self.index_nodes[name].endpoint.fail()
        # Endpoint-only kill (process state survives) — distinct from
        # IndexNode.crash(), which journals its own node.crash.
        self.journal.emit("node.crash", node=name, mode="endpoint_down")

    def failover(self, name: str) -> int:
        """Checkpoint-based failover of a dead node's partitions."""
        return self.master.failover(name)

    def recover_node(self, name: str) -> int:
        """Bring a failed Index Node back into the cluster.

        Two distinct cases, decided by what happened while it was down:

        * the Master never failed it over (it is still registered) — a
          plain process restart: replay the WAL and carry on with the
          data it already had; or
        * failover already moved its partitions to survivors — the node
          must **rejoin empty** (its replicas are stale copies of data
          now live elsewhere; serving or counting them would double-count
          every failed-over file).  :meth:`IndexNode.reset` wipes it, and
          it re-registers to take new assignments.

        Returns the number of WAL records replayed (always 0 on the
        rejoin path — a rejoin starts from nothing).
        """
        node = self.index_nodes[name]
        if name in self.master.index_nodes:
            if node.endpoint.up:
                return 0
            return node.restart()
        node.reset()
        node.endpoint.recover()
        self.master.register_index_node(name)
        self.journal.emit("node.rejoin", node=name)
        self.registry.counter("cluster.master.rejoins").inc()
        return 0

    def pump(self) -> None:
        """Let background timers that are due fire (no time advance)."""
        self.loop.run_due()
        self.timeline.sample_if_due()
        self.slos.sample_if_due()
        self.health.sample_if_due()

    def advance(self, seconds: float) -> None:
        """Advance virtual time, firing background work along the way.

        With a timeline enabled the advance is chunked at sample-interval
        boundaries so long sleeps still produce evenly spaced points;
        each chunk is the same ``run_until`` a plain advance performs, so
        the simulated timeline of events is identical either way.  The
        SLO/health sampling hooks charge zero simulated time, so they
        never alter the event schedule either.
        """
        target = self.clock.now() + seconds
        if self.timeline.enabled:
            step = self.timeline.interval_s
            while self.clock.now() < target:
                # Work inside run_until may push the clock past the chunk
                # boundary; always aim at least at the current instant.
                chunk = max(self.clock.now(), min(target, self.clock.now() + step))
                self.loop.run_until(chunk)
                self.timeline.sample_if_due()
                self.slos.sample_if_due()
                self.health.sample_if_due()
            self.timeline.sample_if_due()
        else:
            self.loop.run_until(target)
        self.slos.sample_if_due()
        self.health.sample_if_due()

    # -- clients -------------------------------------------------------------------

    def make_client(self, pid_filter: Optional[Set[int]] = None,
                    batch_size: int = 128) -> PropellerClient:
        """Attach a new client to the shared VFS and cluster.

        Under replication (RF > 1) the client gets a hedging policy, so
        its search legs race follower replicas after a p95-derived timer.
        """
        hedging = None
        if self.replication_factor > 1:
            from repro.replication import HedgePolicy
            hedging = HedgePolicy(self.registry)
        client = PropellerClient(
            self.vfs, self.rpc,
            master=self.master.endpoint.name,
            batch_size=batch_size,
            pid_filter=pid_filter,
            local=self.single_node,
            pump=self.pump,
            hedging=hedging,
            masters=[m.endpoint.name for m in self.masters],
            registry=self.registry,
            journal=self.journal,
        )
        client.tracer = self.tracer
        client.set_freshness(self.freshness)
        self._clients.append(client)
        return client

    def set_tiering(self, enabled: bool, freeze_age_s: Optional[float] = None,
                    cache_budget_bytes: Optional[int] = None,
                    min_bytes: Optional[int] = None) -> None:
        """Flip tiered index storage service-wide.

        Enabled: every Index Node's background tick freezes cold
        partitions into compressed segments on the shared simulated
        object store, searches against them go summary → segment cache →
        hydrate, and writes thaw them back to the live path.
        ``freeze_age_s`` tunes the idle age the tier policy requires
        before freezing; ``cache_budget_bytes`` resizes each node's
        segment cache; ``min_bytes`` lowers the size floor below which
        freezing is not worth the request cost (small deployments and
        the chaos harness want tiny partitions to qualify).  ``False``
        (the default state) thaws everything
        and restores the legacy path byte-for-byte — the chaos
        bit-determinism baseline.
        """
        self.tiering = enabled
        for name in sorted(self.index_nodes):
            node = self.index_nodes[name]
            node.tiering = enabled
            if freeze_age_s is not None:
                node.tier_policy.freeze_age_s = freeze_age_s
            if min_bytes is not None:
                node.tier_policy.min_bytes = min_bytes
            if cache_budget_bytes is not None:
                node.segment_cache.resize(cache_budget_bytes)
            if not enabled:
                for acg_id in sorted(node.frozen):
                    node._thaw(acg_id, reason="tiering_off")

    # -- convenience -----------------------------------------------------------------

    def total_indexed_files(self) -> int:
        """Files indexed on *live* nodes (a failed node's stale replicas
        do not count — after failover their data lives elsewhere)."""
        return sum(replica.file_count
                   for node in self.index_nodes.values()
                   if node.endpoint.up
                   for replica in node.replicas.values())

    def acg_count(self) -> int:
        """Number of partitions (ACGs) the Master tracks."""
        return len(self.master.partitions)

    def drop_caches(self) -> None:
        """Cold-start every machine (before 'cold query' measurements),
        and every client's held answers with them."""
        self.cluster.drop_caches()
        for node in self.index_nodes.values():
            node.drop_resident()
        for client in self._clients:
            client.drop_answers()

    def commit_all(self) -> None:
        """Flush every client batch and every Index Node cache."""
        for client in self._clients:
            client.flush_updates()
        for node in self.index_nodes.values():
            node.cache.commit_all()

    def sync_replication(self) -> None:
        """Drive follower replicas to convergence (no-op at RF = 1).

        Deterministic: retries any follower-set assignments the Master
        could not deliver, then has every live primary bootstrap/stream
        each of its replicated partitions in sorted order.  The chaos
        harness calls this before checking the ``replicas-converge``
        invariant — steady-state heartbeats and ticks do the same work
        incrementally."""
        if self.replication_factor <= 1:
            return
        self.master._retry_follower_syncs()
        for name in sorted(self.index_nodes):
            node = self.index_nodes[name]
            if node.endpoint.up:
                node.catch_up()

    # Registry-name → stats()-key mapping for one Index Node: stats() is
    # now a *view* over the metrics registry, so operators, exporters and
    # this method all read the same instruments.
    _NODE_STAT_KEYS = (
        ("acgs", "acgs"),
        ("files", "files"),
        ("resident_bytes", "resident_bytes"),
        ("cache_pending", "cache.pending"),
        ("cache_timeout_commits", "cache.timeout_commits"),
        ("cache_search_commits", "cache.search_commits"),
        ("wal_bytes", "wal.bytes"),
        ("wal_replay_dropped", "wal.replay_dropped"),
        ("disk_reads", "disk.reads"),
        ("disk_writes", "disk.writes"),
        ("up", "up"),
    )

    def stats(self) -> Dict[str, object]:
        """A structured snapshot of the whole deployment's health:
        partition layout, per-node cache/WAL/disk counters, and network
        traffic.  Used by operators (and the CLI) to see where load
        lands.

        Every value is read from the metrics registry (the keys are
        unchanged from before the registry existed); ``repro.obs.export``
        renders the same instruments as tables or JSON.
        """
        value = self.registry.value
        nodes = {
            name: {key: value(f"cluster.{name}.{metric}")
                   for key, metric in self._NODE_STAT_KEYS}
            for name in self.index_nodes
        }
        return {
            "virtual_time_s": value("cluster.virtual_time_s"),
            "partitions": value("cluster.master.partitions"),
            "indexed_files": value("cluster.indexed_files"),
            "splits": value("cluster.master.split_decisions"),
            "checkpoints": value("cluster.master.checkpoints_written"),
            "network_messages": value("cluster.network.messages"),
            "network_bytes": value("cluster.network.bytes_sent"),
            "nodes": nodes,
        }

    def status(self, events_tail: int = 10) -> Dict[str, object]:
        """The health-plane snapshot ``repro status`` renders: cluster
        verdict + gauges, per-SLO burn state, deployment stats, and the
        journal's most recent events.  JSON-ready."""
        self.slos.sample_if_due()
        return {
            "health": self.health.summary(),
            "slo": self.slos.summary(),
            "master": self.master_status(),
            "stats": self.stats(),
            "tiers": self.memory_tiers(),
            "journal": self.journal.digest(),
            "events": [e.to_dict() for e in self.journal.tail(events_tail)],
        }
