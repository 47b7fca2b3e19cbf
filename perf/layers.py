"""Per-layer metrics: counts and ratios read at layer boundaries.

Counts come from the deployment's existing ``registry`` / ``stats``
counters (snapshotted around the measured window, so set-up does not
pollute them) or from the :class:`~perf.layertrace.LayerTracer`
wrappers — nothing is added inside ``src/``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Optional

from perf.harness import Deployment, Meter, percentile
from perf.layertrace import LayerTracer
from perf.spec import LAYERS

_REGISTRY_COUNTERS = (
    "search.partitions_searched", "search.partitions_pruned",
    "cluster.client.hedges", "cluster.client.hedge_rescues",
)


def _counters(dep: Deployment) -> Dict[str, float]:
    """Raw monotone counters of one deployment."""
    service, client = dep.service, dep.client
    registry = service.registry
    nodes = list(service.index_nodes.values())
    out: Dict[str, float] = {
        name: (registry.value(name) if name in registry else 0)
        for name in _REGISTRY_COUNTERS}
    out["route_hits"] = client.route_cache_hits
    out["route_misses"] = client.route_cache_misses
    out["net_bytes"] = service.cluster.network.stats.bytes_sent
    out["rc_hits"] = sum(n.result_cache_hits for n in nodes)
    out["rc_misses"] = sum(n.result_cache_misses for n in nodes)
    out["wal_fsyncs"] = sum(n.wal.fsyncs for n in nodes)
    out["wal_bytes"] = sum(n.wal.bytes_written for n in nodes)
    for field in ("timeout_commits", "search_commits", "flush_commits",
                  "updates_committed"):
        out[field] = sum(getattr(n.cache.stats, field) for n in nodes)
    out["repl_streamed"] = sum(n.repl_streamed for n in nodes)
    for field in ("hits", "misses", "evictions"):
        out["seg_" + field] = sum(
            getattr(n.segment_cache.stats, field) for n in nodes)
    store = service.object_store
    out["store_gets"] = store.stats.gets
    out["store_bytes_out"] = store.stats.bytes_out
    out["store_cost_usd"] = store.simulated_cost_usd()
    if "update.batch_size" in registry:
        batches = registry.histogram("update.batch_size", unit="updates")
        out["batches"], out["batched_updates"] = batches.count, batches.total
    else:
        out["batches"] = out["batched_updates"] = 0
    return out


class Observer:
    """Called by a workload around each deployment's measured work.

    The plain observer only accumulates counter deltas; with a tracer it
    also turns recording on for exactly that interval and wraps the
    deployment's Master endpoint handlers.
    """

    def __init__(self, tracer: Optional[LayerTracer] = None) -> None:
        self.tracer = tracer
        self.delta: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {
            "btree_height_max": 0, "repl_lag_max": 0,
            "frozen_bytes": 0, "frozen_files": 0}
        self.hydrations: List[float] = []
        self.commit_search_ops = set()
        self.tasks_fired = 0
        self.wall_s = 0.0
        self._before: Dict[str, float] = {}
        self._began = 0.0

    def begin(self, dep: Deployment) -> None:
        self._before = _counters(dep)
        self._began = perf_counter()
        tracer = self.tracer
        if tracer is None:
            return
        for master in dep.service.masters:
            tracer.wrap_endpoint(master.endpoint, "cluster.master")
        tracer.hooks["IndexCache.commit_for_search"] = self._on_search_commit
        tracer.hooks["EventLoop.run_due"] = self._on_fired
        tracer.hooks["EventLoop.run_until"] = self._on_fired
        tracer.start(dep.clock)

    def _on_search_commit(self, committed: Any) -> None:
        if committed:
            self.commit_search_ops.add(self.tracer.op_id)

    def _on_fired(self, fired: Any) -> None:
        self.tasks_fired += int(fired or 0)

    def end(self, dep: Deployment) -> None:
        self.wall_s += perf_counter() - self._began
        if self.tracer is not None:
            self.tracer.stop()
            self.tracer.unwrap_endpoints()
        after = _counters(dep)
        for key, value in after.items():
            self.delta[key] = self.delta.get(key, 0) + value - self._before[key]
        self._sample_gauges(dep)

    def _sample_gauges(self, dep: Deployment) -> None:
        service = dep.service
        gauges = self.gauges
        for node in service.index_nodes.values():
            for replica in node.replicas.values():
                for index in replica.indexes.values():
                    height = getattr(index, "height", None)
                    if isinstance(height, int):
                        gauges["btree_height_max"] = max(
                            gauges["btree_height_max"], height)
            for acg_id, frozen in node.frozen.items():
                gauges["frozen_bytes"] += frozen.serialized_bytes
                replica = node.replicas.get(acg_id)
                if replica is not None:
                    gauges["frozen_files"] += replica.file_count
        gauges["repl_lag_max"] = max(
            gauges["repl_lag_max"],
            service.registry.value("cluster.health.repl_lag_max"))
        if "tier.hydration_s" in service.registry:
            self.hydrations.extend(service.registry.histogram(
                "tier.hydration_s", unit="s").reservoir_values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer, observer: Observer, meter: Meter,
                  write_closes: int, dirty_drained: int) -> Dict[str, float]:
    """Every ``<layer>.*`` per-layer metric (the ``bench.*`` / ``obs.*``
    rows are the runner's)."""
    d = observer.delta
    ops = max(1, meter.ops)
    searches = meter.count["search"]
    updates = meter.count["update"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.host_self_s"] = tracer.host_self_s(layer)
        out[f"{layer}.sim_self_s"] = tracer.sim_self_s.get(layer, 0.0)
        out[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    legs = d["search.partitions_searched"] + d["search.partitions_pruned"]
    commits = d["timeout_commits"] + d["search_commits"] + d["flush_commits"]
    rpc_calls = (tracer.fn_calls.get("RpcNetwork.call", 0)
                 + tracer.fn_calls.get("RpcNetwork.multicall", 0))
    out.update({
        "fs.interceptor.dirty_coalesce_ratio":
            _ratio(dirty_drained, write_closes),
        "cluster.client.batch_size_mean":
            _ratio(d["batched_updates"], d["batches"]),
        "cluster.client.route_cache_hit_rate":
            _ratio(d["route_hits"], d["route_hits"] + d["route_misses"]),
        "cluster.master.rpcs_per_op":
            tracer.calls.get("cluster.master", 0) / ops,
        "cluster.client.legs_per_search": _ratio(legs, searches),
        "cluster.client.legs_pruned_share":
            _ratio(d["search.partitions_pruned"], legs),
        "cluster.client.hedged_legs": d["cluster.client.hedges"],
        "cluster.client.rescued_legs": d["cluster.client.hedge_rescues"],
        "sim.rpc.calls_per_op": rpc_calls / ops,
        "sim.rpc.bytes_per_op": d["net_bytes"] / ops,
        "cluster.index_node.result_cache_hit_rate":
            _ratio(d["rc_hits"], d["rc_hits"] + d["rc_misses"]),
        "cluster.index_node.commit_on_search_share":
            _ratio(len(observer.commit_search_ops), searches),
        "cluster.wal.fsyncs_per_update": _ratio(d["wal_fsyncs"], updates),
        "cluster.wal.bytes_per_update": _ratio(d["wal_bytes"], updates),
        "cluster.cache.ops_per_commit":
            _ratio(d["updates_committed"], commits),
        "cluster.cache.commits": commits,
        "cluster.cache.search_commits": d["search_commits"],
        "indexstructures.btree.height_max":
            observer.gauges["btree_height_max"],
        "query.executor.results_per_search": _ratio(meter.results, searches),
        "replication.records_per_update":
            _ratio(d["repl_streamed"], updates),
        "replication.lag_max": observer.gauges["repl_lag_max"],
        "cluster.segments.cache_hit_rate":
            _ratio(d["seg_hits"], d["seg_hits"] + d["seg_misses"]),
        "cluster.segments.evictions": d["seg_evictions"],
        "cluster.segments.hydration_sim_p95_s":
            percentile(observer.hydrations, 95) if observer.hydrations else 0.0,
        "sim.objectstore.gets": d["store_gets"],
        "sim.objectstore.bytes_get": d["store_bytes_out"],
        "sim.objectstore.cost_usd_per_kop":
            1000.0 * d["store_cost_usd"] / ops,
        "cluster.segments.load_host_self_s":
            tracer.fn_host_self_s("load_segment"),
        "cluster.segments.dump_host_self_s":
            tracer.fn_host_self_s("dump_segment"),
        "cluster.segments.bytes_per_file":
            _ratio(observer.gauges["frozen_bytes"],
                   observer.gauges["frozen_files"]),
        "sim.events.tasks_fired": observer.tasks_fired,
        "bench.attributed_share":
            _ratio(sum(tracer.host_self_ns.values()) / 1e9,
                   observer.wall_s - meter.yardstick_wall_s),
    })
    return out
