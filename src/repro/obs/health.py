"""The health plane: heartbeat-state gauges and cluster verdicts.

The :class:`HealthMonitor` samples the live deployment state the Master
and Index Nodes already maintain into ``cluster.health.*`` gauges —
per-replica applied-watermark lag, under-replicated partition count, a
time-to-catch-up estimate, and route-table staleness — and derives a
per-node plus whole-cluster **verdict**: ``healthy``, ``degraded``, or
``critical``, always with named causes (``node_down:in2``,
``under_replicated``, ``slo_breach:search_latency``) rather than a bare
traffic light.

Verdict *transitions* are emitted into the event journal as
``health.degraded`` / ``health.critical`` / ``health.healthy`` events,
so a chaos run's journal shows the cluster going degraded at the crash
and healthy again after recovery — the readout ``repro status`` renders.

Node rules (first match wins):

* endpoint down while still registered → **critical** (``down`` — its
  partitions are stranded until failover);
* endpoint down after failover removed it → **degraded** (``departed``);
* endpoint up but not registered → **degraded** (``awaiting_rejoin``);
* otherwise **healthy**.

Cluster rules (worst wins, every matching cause named):

* any partition placed on no live node → **critical**
  (``partitions_stranded`` / ``unplaced_partitions``);
* any node critical → **critical**;
* under-replicated partitions (RF > 1) → **degraded**;
* any node degraded → **degraded**;
* any currently-breached SLO → **degraded**;
* otherwise **healthy**.

Like every observability layer: zero simulated time, no randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.journal import NULL_JOURNAL
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import NULL_SLOS

if TYPE_CHECKING:
    from repro.sim.clock import SimClock

DEFAULT_INTERVAL_S = 1.0

HEALTHY = "healthy"
DEGRADED = "degraded"
CRITICAL = "critical"
_RANK = {HEALTHY: 0, DEGRADED: 1, CRITICAL: 2}


@dataclass
class HealthVerdict:
    """One verdict with its named causes, per node and cluster-wide."""

    verdict: str
    causes: Tuple[str, ...]
    nodes: Dict[str, Tuple[str, Tuple[str, ...]]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict,
            "causes": list(self.causes),
            "nodes": {name: {"verdict": v, "causes": list(c)}
                      for name, (v, c) in sorted(self.nodes.items())},
        }


class HealthMonitor:
    """Derives gauges and verdicts from Master + Index Node live state."""

    enabled = True

    def __init__(self, clock: "SimClock", registry: MetricsRegistry,
                 master, nodes: Dict[str, Any],
                 journal=NULL_JOURNAL, slos=NULL_SLOS,
                 interval_s: float = DEFAULT_INTERVAL_S) -> None:
        self.clock = clock
        self.registry = registry
        self.master = master
        self.nodes = nodes
        self.journal = journal
        self.slos = slos
        self.interval_s = interval_s
        self._last_sample: Optional[float] = None
        self._last_verdict = HEALTHY
        # Route-table staleness: when we last saw the routing epoch move.
        self._route_epoch_seen = master.partitions.epoch
        self._route_epoch_t = clock.now()
        # Catch-up rate estimation: previous (t, total_lag) observation.
        self._prev_lag: Optional[Tuple[float, int]] = None
        self._catchup_eta_s = 0.0
        registry.gauge_fn("cluster.health.repl_lag_max", self.repl_lag_max)
        registry.gauge_fn("cluster.health.under_replicated",
                          lambda: len(self.under_replicated()))
        registry.gauge_fn("cluster.health.nodes_down",
                          lambda: sum(1 for n in self.nodes.values()
                                      if not n.endpoint.up))
        registry.gauge_fn("cluster.health.route_staleness_s",
                          self.route_staleness_s)
        registry.gauge_fn("cluster.health.catchup_eta_s",
                          lambda: self._catchup_eta_s)
        # 1 while no acting Master is up (crash before the standby's
        # lease expires, or no standby at all); the master-availability
        # SLO burns its budget against this gauge.  ``self.master`` is
        # re-pointed by the deployment on standby promotion, so the
        # gauge follows the acting role, not one process.
        registry.gauge_fn("cluster.health.master_unavailable",
                          self.master_unavailable)

    # -- gauges ---------------------------------------------------------------

    def _replica_lags(self) -> Dict[int, int]:
        """Per-partition worst follower applied-watermark lag (records)."""
        sets = self.master.replica_sets
        if sets is None:
            return {}
        lags: Dict[int, int] = {}
        for acg_id in sets.partitions():
            state = sets.get(acg_id)
            if state is None or not state.followers:
                continue
            worst = max(state.primary_seq - state.applied.get(f, 0)
                        for f in state.followers)
            lags[acg_id] = max(0, worst)
        return lags

    def repl_lag_max(self) -> int:
        """Worst per-replica applied-watermark lag across the cluster."""
        lags = self._replica_lags()
        return max(lags.values()) if lags else 0

    def under_replicated(self) -> List[int]:
        """Placed partitions with fewer live followers than RF requires."""
        sets = self.master.replica_sets
        if sets is None:
            return []
        needed = self.master.replication_factor - 1
        out: List[int] = []
        for partition in self.master.partitions.partitions():
            if partition.node is None:
                continue
            state = sets.get(partition.partition_id)
            followers = state.followers if state is not None else ()
            live = sum(1 for f in followers
                       if f in self.master.index_nodes
                       and f in self.nodes and self.nodes[f].endpoint.up)
            if live < needed:
                out.append(partition.partition_id)
        return sorted(out)

    def master_unavailable(self) -> int:
        """1 when the deployment has no up-and-acting Master."""
        return 0 if (self.master.endpoint.up
                     and getattr(self.master, "acting", True)) else 1

    def route_staleness_s(self) -> float:
        """Virtual seconds since the routing epoch last moved (as this
        monitor observed it)."""
        self._note_route_epoch()
        return self.clock.now() - self._route_epoch_t

    def _note_route_epoch(self) -> None:
        epoch = self.master.partitions.epoch
        if epoch != self._route_epoch_seen:
            self._route_epoch_seen = epoch
            self._route_epoch_t = self.clock.now()

    def _update_catchup_eta(self, now: float) -> None:
        """Estimate time-to-catch-up from the lag's observed slope:
        lag / drain-rate while shrinking, 0 when caught up, -1 (unknown)
        while lag holds or grows."""
        total_lag = sum(self._replica_lags().values())
        prev = self._prev_lag
        self._prev_lag = (now, total_lag)
        if total_lag == 0:
            self._catchup_eta_s = 0.0
            return
        if prev is None or now <= prev[0] or total_lag >= prev[1]:
            self._catchup_eta_s = -1.0
            return
        rate = (prev[1] - total_lag) / (now - prev[0])
        self._catchup_eta_s = total_lag / rate

    # -- verdicts -------------------------------------------------------------

    def node_verdict(self, name: str) -> Tuple[str, Tuple[str, ...]]:
        node = self.nodes[name]
        registered = name in self.master.index_nodes
        if not node.endpoint.up:
            if registered:
                return CRITICAL, ("down",)
            return DEGRADED, ("departed",)
        if not registered:
            return DEGRADED, ("awaiting_rejoin",)
        return HEALTHY, ()

    def verdict(self) -> HealthVerdict:
        nodes = {name: self.node_verdict(name)
                 for name in sorted(self.nodes)}
        causes: List[str] = []
        worst = HEALTHY
        stranded = [p.partition_id
                    for p in self.master.partitions.partitions()
                    if p.node is not None and p.node in self.nodes
                    and not self.nodes[p.node].endpoint.up]
        unplaced = [p.partition_id
                    for p in self.master.partitions.partitions()
                    if p.node is None and p.files]
        if self.master_unavailable():
            worst = CRITICAL
            causes.append("master_unavailable")
        if stranded:
            worst = CRITICAL
            causes.append("partitions_stranded:" +
                          ",".join(str(i) for i in sorted(stranded)))
        if unplaced:
            worst = CRITICAL
            causes.append("unplaced_partitions:" +
                          ",".join(str(i) for i in sorted(unplaced)))
        for name, (v, node_causes) in sorted(nodes.items()):
            if _RANK[v] > _RANK[HEALTHY]:
                label = "node_down" if v == CRITICAL else "node_degraded"
                causes.append(f"{label}:{name}" +
                              (f"({node_causes[0]})" if node_causes else ""))
                if _RANK[v] > _RANK[worst]:
                    worst = v
        under = self.under_replicated()
        if under:
            causes.append("under_replicated:" +
                          ",".join(str(i) for i in under))
            if _RANK[worst] < _RANK[DEGRADED]:
                worst = DEGRADED
        for slo_name in self.slos.breached():
            causes.append(f"slo_breach:{slo_name}")
            if _RANK[worst] < _RANK[DEGRADED]:
                worst = DEGRADED
        return HealthVerdict(worst, tuple(causes), nodes)

    # -- sampling -------------------------------------------------------------

    def sample_if_due(self) -> None:
        now = self.clock.now()
        if self._last_sample is not None and \
                now - self._last_sample < self.interval_s:
            return
        self.sample()

    def sample(self) -> HealthVerdict:
        """One evaluation round: refresh derived gauges, compute the
        verdict, journal the transition if it changed."""
        now = self.clock.now()
        self._last_sample = now
        self._note_route_epoch()
        self._update_catchup_eta(now)
        verdict = self.verdict()
        if verdict.verdict != self._last_verdict:
            self.journal.emit(f"health.{verdict.verdict}",
                              previous=self._last_verdict,
                              causes=list(verdict.causes))
            self._last_verdict = verdict.verdict
        return verdict

    def summary(self) -> Dict[str, Any]:
        """JSON-ready snapshot: verdict + the health gauges."""
        verdict = self.verdict()
        out = verdict.to_dict()
        out["gauges"] = {
            "repl_lag_max": self.repl_lag_max(),
            "under_replicated": len(self.under_replicated()),
            "nodes_down": sum(1 for n in self.nodes.values()
                              if not n.endpoint.up),
            "route_staleness_s": round(self.route_staleness_s(), 6),
            "catchup_eta_s": round(self._catchup_eta_s, 6),
            "master_unavailable": self.master_unavailable(),
        }
        return out
