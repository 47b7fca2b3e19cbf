"""The chaos harness: execute a fault program and prove invariants.

:class:`ChaosRunner` builds a fresh deployment hardened the way a real
one would be — retry policy on every RPC, auto-failover on heartbeat
loss, degraded queries — attaches a seeded :class:`FaultInjector` to the
RPC network and every Index Node disk, executes a seeded schedule, and
checks the :mod:`repro.chaos.check` invariants at settle points.

Everything is driven by the virtual clock and seeded RNGs, so a run is a
pure function of ``(seed, steps, nodes)``: the CLI's determinism gate
runs each schedule twice and insists the canonical JSON reports match
byte for byte.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.chaos.check import _NEVER, AckLedger, InvariantChecker
from repro.chaos.faults import FaultInjector
from repro.chaos.schedule import ChaosStep, build_schedule
from repro.cluster.service import PropellerService
from repro.core.partitioner import PartitioningPolicy
from repro.errors import ClusterError
from repro.indexstructures.base import IndexKind
from repro.sim.rpc import RetryPolicy

# Counters worth reporting, in stable order.
_REPORT_COUNTERS = (
    "cluster.rpc.retries",
    "cluster.rpc.timeouts",
    "cluster.rpc.failures",
    "cluster.rpc.duplicates",
    "cluster.master.failovers",
    "cluster.master.auto_failovers",
    "cluster.master.reassigned_partitions",
    "cluster.master.partitions_lost",
    "cluster.master.rejoins",
    "cluster.client.degraded_searches",
    "cluster.client.unreachable_partitions",
    "cluster.client.requeued_updates",
    "cluster.client.lost_deletes",
    "cluster.client.stale_route_nacks",
    "cluster.client.route_refreshes",
    "cluster.master.route_rpcs",
    "cluster.master.migrations",
    "cluster.master.migrations_aborted",
    "cluster.master.migration_finish_deferred",
    "cluster.freshness.expired",
    "search.prune_attempts",
    "search.partitions_pruned",
    "search.partitions_searched",
    "cluster.client.summary_refreshes",
    "cluster.master.promotions",
    "cluster.master.failover_deferred",
    "cluster.client.hedges",
    "cluster.client.hedge_wins",
    "cluster.client.hedge_rescues",
    "cluster.master.standby_promotions",
    "cluster.master.deposed",
    "cluster.master.restarts",
    "cluster.client.master_rehomes",
)


class ChaosRunner:
    """Runs one seeded fault program against one fresh deployment."""

    def __init__(self, seed: int, steps: int = 50, nodes: int = 3,
                 settle_every: int = 10,
                 retry_policy: Optional[RetryPolicy] = None,
                 rf: int = 1, master_faults: bool = False,
                 tiering: bool = False) -> None:
        self.seed = seed
        self.steps = steps
        self.nodes = nodes
        self.rf = rf
        self.master_faults = master_faults
        self.tiering = tiering
        self.settle_every = max(1, settle_every)
        self.schedule: List[ChaosStep] = build_schedule(
            seed, steps, nodes, master_faults=master_faults,
            tiering=tiering)
        # Splits are disabled (huge threshold): the interplay of mid-split
        # faults with metadata mutation is out of the fault model's scope,
        # and a surprise split would make missing-file excuses ambiguous.
        self.service = PropellerService(
            num_index_nodes=nodes,
            # Small partitions spread data across every node, so crashes
            # actually take partitions away (an empty victim tests nothing).
            policy=PartitioningPolicy(split_threshold=10**9,
                                      cluster_target=8),
            retry_policy=retry_policy or RetryPolicy(),
            rpc_seed=seed,
            auto_failover=True,
            replication_factor=rf,
            # Master-fault schedules need somewhere for the control plane
            # to fail over *to*; baseline schedules keep the historical
            # single-Master deployment so their runs stay byte-identical.
            standby_master=master_faults,
        )
        # Random message faults never hit the Master(s): the paper's
        # fault model assumes a reachable metadata server, and the
        # master-fault ops fail it *deliberately* (crash / isolation)
        # instead of by lottery — so the control-plane outage windows a
        # report shows are the scheduled ones, not rate noise.
        immune = (frozenset({"master", "master2"}) if master_faults
                  else frozenset({"master"}))
        self.faults = FaultInjector(seed + 1, registry=self.service.registry,
                                    immune_targets=immune,
                                    journal=self.service.journal)
        self.service.rpc.faults = self.faults
        for node in self.service.index_nodes.values():
            node.machine.disk.faults = self.faults
        self.service.enable_freshness()
        self.service.enable_timeline(interval_s=5.0)
        # Cold-tier faults go through the same injector; attaching the
        # hook is free when tiering is off (the decision methods draw no
        # randomness while their rates are zero).
        self.service.object_store.faults = self.faults
        if tiering:
            # A 4s freeze age sits under the 6s settle advance, so every
            # settle window gives cold partitions a chance to freeze and
            # the frozen-answer invariant real segments to audit; the
            # size floor drops to 256 B because chaos partitions are tiny.
            self.service.set_tiering(True, freeze_age_s=4.0, min_bytes=256)
        self.client = self.service.make_client(batch_size=128)
        self.ledger = AckLedger()
        self.checker = InvariantChecker(self.service, self.client, self.ledger)
        self.violations: List[Dict[str, Any]] = []
        self.executed: List[str] = []
        self.skipped = 0
        self.aborted_ops = 0
        self.degraded_queries = 0
        self._next_file = 0
        self._submitted: List[int] = []
        self._failovers_seen = 0
        # Pending-at-crash file ids per node, pending WAL-drop attribution.
        self._crashed_pending: Dict[str, List[int]] = {}
        self.service.vfs.mkdir("/chaos", parents=True)
        self.client.create_index("by_chaos", IndexKind.BTREE, ["chaos"])

    # -- helpers --------------------------------------------------------------

    def _node_name(self, ordinal: int) -> str:
        return f"in{(ordinal % self.nodes) + 1}"

    def _live_count(self) -> int:
        return sum(1 for n in self.service.index_nodes.values()
                   if n.endpoint.up)

    def _now(self) -> float:
        return self.service.clock.now()

    def _locate_partition(self, file_id: int) -> Optional[int]:
        """Which ACG actually holds a file — committed or still pending
        in an Index Node's cache.  Ledger ground truth when neither the
        client's route cache (evicted by a full-table refresh) nor the
        Master's lazily-learned file map can attribute an ack."""
        from repro.cluster.messages import UpdateOp

        for name in sorted(self.service.index_nodes):
            node = self.service.index_nodes[name]
            for acg_id in sorted(node.replicas):
                if file_id in node.replicas[acg_id].store:
                    return acg_id
            for acg_id in sorted(node.cache.pending_acgs()):
                for update in node.cache.pending_ops(acg_id):
                    if update.file_id == file_id and update.op is UpdateOp.UPSERT:
                        return acg_id
        return None

    def _sync_acks(self) -> None:
        """Anything we submitted that is no longer waiting in the client
        was delivered (acked) at some point during the last step."""
        waiting = {u.file_id for _, u in self.client._pending}
        partitions = self.service.master.partitions
        for file_id in self._submitted:
            record = self.ledger.files[file_id]
            if record.acked or record.deleted or file_id in waiting:
                continue
            # Client-placed files live in the client's route cache; the
            # Master only learns them lazily (split adoption, merges).
            partition = self.client._file_routes.get(file_id)
            if partition is None:
                partition = partitions.partition_of(file_id)
            if partition is None:
                partition = self._locate_partition(file_id)
            self.ledger.acked(file_id, self._now(), partition)

    def _observe_failovers(self) -> None:
        """Turn new failover events into missing-file excuse windows."""
        log = self.service.master.journal.payloads("failover")
        for event in log[self._failovers_seen:]:
            victim = self.service.index_nodes[event.node]
            self.ledger.add_window(event.moved, victim.last_checkpoint_t,
                                   f"failover_of_{event.node}")
            self.ledger.add_window(event.lost, _NEVER,
                                   f"partition_lost_with_{event.node}")
            # Promotion's durability boundary is much tighter than the
            # checkpoint: the promoted follower held everything its
            # primary had streamed as of the victim's last heartbeat
            # (promotion viability is checked against that watermark), so
            # only acks *after* that heartbeat may be missing.
            self.ledger.add_window(getattr(event, "promoted", ()),
                                   getattr(event, "victim_heartbeat_t", 0.0),
                                   f"promotion_from_{event.node}")
            # Whatever was pending on the victim at its crash died with
            # its WAL; the windows above already cover post-checkpoint
            # acks, so no separate excuse is needed here.
        self._failovers_seen = len(log)

    def _after_restart(self, name: str) -> None:
        """Attribute torn-tail WAL drops to the records that rode them."""
        node = self.service.index_nodes[name]
        pending = self._crashed_pending.pop(name, [])
        if node.wal.replay_dropped > 0 and pending:
            self.ledger.excuse_wal_tail(pending)

    # -- step execution -------------------------------------------------------

    def _do_create_files(self, count: int) -> None:
        vfs = self.service.vfs
        for _ in range(count):
            i = self._next_file
            self._next_file += 1
            path = f"/chaos/f{i:05d}"
            # One pid per file: no causal chain, so placement follows the
            # cluster-target rule and data spreads across every node —
            # a crash then always takes real partitions away.
            pid = 100 + i
            vfs.write_file(path, 1024 + 17 * i, pid=pid)
            vfs.setattr(path, "chaos", i, pid=pid)
            self.ledger.created(vfs.stat(path).ino, path, self._now())
            self._submitted.append(vfs.stat(path).ino)
            self.client.index_path(path, pid=pid)
        self.client.flush_updates()

    def _do_delete_file(self, pick: int) -> None:
        alive = sorted(r.file_id for r in self.ledger.files.values()
                       if not r.deleted)
        if not alive:
            return
        file_id = alive[pick % len(alive)]
        record = self.ledger.files[file_id]
        before = len(self.client.lost_deletes)
        self.service.vfs.unlink(record.path, pid=1)
        lost = len(self.client.lost_deletes) > before
        self.ledger.deleted(file_id, self._now(), lost)

    def _do_query(self) -> None:
        try:
            answer = self.client.search_detailed("chaos>=0")
        except ClusterError:
            self.aborted_ops += 1
            return
        if answer.degraded:
            self.degraded_queries += 1
        known = self.ledger.known_paths()
        for path in answer.paths:
            if path not in known:
                self.violations.append({
                    "step": -1, "kind": "search_phantom_path",
                    "detail": f"mid-chaos search returned unknown {path}"})
                break
        self._check_prune_recall()

    def _check_prune_recall(self) -> None:
        """Pruned-vs-unpruned recall oracle, interleaved with the faults.

        ``chaos`` values are monotonic, so a newest-window query is
        exactly the selective shape summaries prune: every partition
        whose zone-map high sits below the cutoff can be skipped.  The
        same query re-run with pruning disabled is the ground truth —
        any difference (when neither run was degraded) means pruning
        dropped a matching file, which must be impossible.
        """
        cutoff = max(0, self._next_file - 8)
        query = f"chaos>={cutoff}"
        try:
            pruned_run = self.client.search_detailed(query)
            self.client.prune_searches = False
            try:
                full_run = self.client.search_detailed(query)
            finally:
                self.client.prune_searches = True
        except ClusterError:
            self.client.prune_searches = True
            self.aborted_ops += 1
            return
        if pruned_run.degraded or full_run.degraded:
            # A leg failed in one of the runs: the answers may diverge
            # for availability reasons, not pruning ones.
            return
        if set(pruned_run.paths) != set(full_run.paths):
            self.violations.append({
                "step": -1, "kind": "prune_recall_loss",
                "detail": (f"query {query!r}: pruned fan-out returned "
                           f"{sorted(pruned_run.paths)} but the unpruned "
                           f"fan-out returned {sorted(full_run.paths)}")})

    def _do_migrate(self, pick: int, target_ordinal: int) -> None:
        """Online-migrate one placed partition to a (live) target node.

        A migration that cannot run — no placed partitions, a dead
        target, unresolved debris mid-fault-storm — counts as an aborted
        op; the protocol's own abort path also lands here."""
        target = self._node_name(target_ordinal)
        if not self.service.index_nodes[target].endpoint.up:
            self.skipped += 1
            return
        placed = sorted(p.partition_id
                        for p in self.service.master.partitions.partitions()
                        if p.node and p.node != target)
        if not placed:
            self.skipped += 1
            return
        acg_id = placed[pick % len(placed)]
        try:
            self.service.master.migrate_partition(acg_id, target)
        except ClusterError:
            self.aborted_ops += 1

    def _do_crash(self, ordinal: int, torn: int) -> None:
        name = self._node_name(ordinal)
        node = self.service.index_nodes[name]
        if not node.endpoint.up or self._live_count() <= 1:
            self.skipped += 1
            return
        self.service.journal.emit("chaos.fault_injected", node=name,
                                  fault="crash", torn_tail_bytes=torn)
        pending = node.crash(torn_tail_bytes=torn)
        self._crashed_pending.setdefault(name, []).extend(pending)

    def _do_crash_restart(self, ordinal: int, torn: int) -> None:
        name = self._node_name(ordinal)
        node = self.service.index_nodes[name]
        if node.endpoint.up:
            self.service.journal.emit("chaos.fault_injected", node=name,
                                      fault="crash_restart",
                                      torn_tail_bytes=torn)
            pending = node.crash(torn_tail_bytes=torn)
            self._crashed_pending.setdefault(name, []).extend(pending)
            node.restart()
            self._after_restart(name)
        else:
            self._do_recover(ordinal)

    def _do_recover(self, ordinal: int) -> None:
        name = self._node_name(ordinal)
        node = self.service.index_nodes[name]
        if node.endpoint.up:
            self.skipped += 1
            return
        rejoin = name not in self.service.master.index_nodes
        self.service.recover_node(name)
        if rejoin:
            # The node came back empty; nothing it was holding survived
            # locally, but failover windows already excuse those.
            self._crashed_pending.pop(name, None)
        else:
            self._after_restart(name)

    def _do_master_crash(self, down_s: float) -> None:
        """Kill the acting Master, leave it down for ``down_s``, restart.

        If the outage outlives the standby's lease the standby promotes
        mid-window and the restarted ex-Master gets fenced back into a
        standby role at the next heartbeat round; shorter outages replay
        the meta-WAL and resume the same term.  Skipped unless both
        Master processes are up — overlapping a crash with an isolation
        window (or a previous unfinished crash) is outside the
        single-control-plane-failure fault model."""
        masters = getattr(self.service, "masters", [])
        if len(masters) < 2 or not all(m.endpoint.up for m in masters) \
                or self.faults.isolated:
            self.skipped += 1
            return
        victim = self.service.master.endpoint.name
        self.service.journal.emit("chaos.fault_injected", node=victim,
                                  fault="master_crash", down_s=down_s)
        self.service.crash_master()
        self.service.advance(down_s)
        self.service.restart_master(victim)

    def _do_master_isolation(self, duration_s: float) -> None:
        """Partition the acting Master off the network for a while.

        Unlike a crash its process stays alive and still believes it is
        acting; if the standby promotes during the window, the healed
        ex-Master's first term-stamped heartbeat round gets fenced —
        the split-brain path the term exists for."""
        masters = getattr(self.service, "masters", [])
        if len(masters) < 2 or not all(m.endpoint.up for m in masters) \
                or self.faults.isolated:
            self.skipped += 1
            return
        target = self.service.master.endpoint.name
        self.service.journal.emit("chaos.fault_injected", node=target,
                                  fault="master_isolation",
                                  duration_s=duration_s)
        self.faults.isolate(target)
        self.service.advance(duration_s)
        self.faults.clear_isolation(target)

    def _execute(self, step: ChaosStep) -> None:
        p = step.params
        if step.op == "create_files":
            self._do_create_files(p["count"])
        elif step.op == "delete_file":
            self._do_delete_file(p["pick"])
        elif step.op == "query":
            self._do_query()
        elif step.op == "advance":
            self.service.advance(p["seconds"])
        elif step.op == "crash_node":
            self._do_crash(p["node"], p["torn_tail_bytes"])
        elif step.op == "crash_restart_wal":
            self._do_crash_restart(p["node"], p["torn_tail_bytes"])
        elif step.op == "recover_node":
            self._do_recover(p["node"])
        elif step.op == "set_message_faults":
            self.faults.set_message_faults(
                drop=p["drop"], duplicate=p["duplicate"],
                delay=p["delay"], delay_s=p["delay_s"])
        elif step.op == "clear_faults":
            self.faults.clear_message_faults()
            self.faults.set_disk_error_rate(0.0)
            self.faults.clear_object_faults()
        elif step.op == "slow_node":
            self.faults.slow_node(self._node_name(p["node"]), p["extra_s"])
        elif step.op == "disk_errors":
            self.faults.set_disk_error_rate(p["rate"])
        elif step.op == "migrate_partition":
            self._do_migrate(p["pick"], p["target"])
        elif step.op == "master_crash":
            self._do_master_crash(p["down_s"])
        elif step.op == "master_isolation":
            self._do_master_isolation(p["duration_s"])
        elif step.op == "object_store_errors":
            self.faults.set_object_error_rate(p["rate"])
        elif step.op == "slow_hydration":
            self.faults.set_hydration_delay(p["extra_s"],
                                            probability=p["probability"])
        elif step.op == "cache_pressure":
            for name in sorted(self.service.index_nodes):
                node = self.service.index_nodes[name]
                if node.endpoint.up:
                    node.drop_caches()
        elif step.op == "flush":
            self.client.flush_updates()
        else:  # pragma: no cover - schedule and runner move in lockstep
            raise ValueError(f"unknown chaos op: {step.op}")

    # -- settle points --------------------------------------------------------

    def _settle(self, step_index: int) -> None:
        """Give every promise a chance to land, then audit."""
        self.faults.clear_message_faults()
        self.faults.set_disk_error_rate(0.0)
        self.faults.clear_object_faults()
        # Two delivery rounds: the first may still route to a crashed
        # node the Master has not yet failed over; advancing time runs
        # heartbeat polls (auto-failover) between them.
        self.client.flush_updates()
        self.service.advance(6.0)
        self.client.flush_updates()
        self.service.pump()
        for node in self.service.index_nodes.values():
            if node.endpoint.up:
                node.cache.commit_all()
        self._sync_acks()
        self._observe_failovers()
        # Replica catch-up is incremental in steady state; drive it to a
        # fixpoint so the replicas-converge invariant sees the settled
        # picture rather than a stream mid-flight.
        self.service.sync_replication()
        self.violations.extend(self.checker.check(step_index))

    # -- the run --------------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Execute the whole program; returns the (JSON-ready) report."""
        for step in self.schedule:
            self._execute(step)
            self.executed.append(step.describe())
            self._sync_acks()
            self._observe_failovers()
            if (step.index + 1) % self.settle_every == 0:
                self._settle(step.index)
        self._settle(self.schedule[-1].index if self.schedule else 0)
        return self.report()

    def _counter(self, name: str) -> float:
        registry = self.service.registry
        return registry.value(name) if name in registry else 0

    def _tier_report(self) -> Dict[str, Any]:
        """Cold-tier digest: summed node counters plus the store's view."""
        nodes = self.service.index_nodes.values()
        store = self.service.object_store
        return {
            "enabled": self.tiering,
            "freezes": sum(n.tier_freezes for n in nodes),
            "thaws": sum(n.tier_thaws for n in nodes),
            "hydrations": sum(n.tier_hydrations for n in nodes),
            "fallbacks": sum(n.tier_fallbacks for n in nodes),
            "summary_prunes": sum(n.tier_summary_prunes for n in nodes),
            "repairs": sum(n.tier_repairs for n in nodes),
            "frozen_now": sum(len(n.frozen) for n in nodes),
            "object_store": {
                "objects": len(store.keys()),
                "bytes": store.stored_bytes(),
                "gets": store.stats.gets,
                "puts": store.stats.puts,
                "errors": store.stats.errors,
            },
        }

    def report(self) -> Dict[str, Any]:
        """Canonical, deterministic digest of the run."""
        ledger = self.ledger
        live = [r for r in ledger.live_acked()]
        wal_drops = sum(n.wal_replay_dropped_total
                        for n in self.service.index_nodes.values())
        status = self.service.master_status()
        return {
            "seed": self.seed,
            "steps": self.steps,
            "nodes": self.nodes,
            "rf": self.rf,
            "master_faults": self.master_faults,
            "tiering": self._tier_report(),
            "master": {
                "term": status["term"],
                "acting": status["acting"],
                "promotions": status["promotions"],
                "deposed": status["deposed"],
                "restarts": status["restarts"],
                "fences": status["fences"],
                "standby_lag": status["standby_lag"],
            },
            "virtual_time_s": round(self._now(), 6),
            "files_created": len(ledger.files),
            "files_acked_live": len(live),
            "files_deleted": sum(1 for r in ledger.files.values() if r.deleted),
            "queries_degraded": self.degraded_queries,
            "ops_aborted": self.aborted_ops,
            "steps_skipped": self.skipped,
            "wal_replay_dropped": wal_drops,
            "injected": self.faults.summary(),
            "journal": self.service.journal.digest(),
            "slo": {"breaches": self.service.slos.breach_count(),
                    "breached_now": self.service.slos.breached()},
            "counters": {name: self._counter(name)
                         for name in _REPORT_COUNTERS},
            "excuse_windows": len(ledger.windows),
            "live_nodes": sorted(
                name for name, n in self.service.index_nodes.items()
                if n.endpoint.up),
            "violations": self.violations,
        }

    def report_json(self) -> str:
        """The report as canonical JSON (sorted keys, no whitespace
        variance) — the unit of the bit-identical determinism check."""
        return json.dumps(self.report(), sort_keys=True,
                          separators=(",", ":"))


def run_chaos(seed: int, steps: int = 50, nodes: int = 3,
              settle_every: int = 10, rf: int = 1,
              master_faults: bool = False,
              tiering: bool = False) -> Dict[str, Any]:
    """Convenience: one fresh runner, one full run, one report."""
    runner = ChaosRunner(seed, steps=steps, nodes=nodes,
                         settle_every=settle_every, rf=rf,
                         master_faults=master_faults, tiering=tiering)
    return runner.run()
