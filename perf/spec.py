"""Metric and layer names — the one vocabulary the benchmark speaks.

``BENCHMARK.json`` at the repo root is the source of truth for the
end-to-end metrics (name, unit, direction, bound) and the per-layer
metric names; this module loads it and holds the pieces the code needs
to *produce* those names: the 21 layers and the wrapped functions that
define each layer's boundary.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("ingest-apps", "search-fanout", "mixed-rw", "cold-tier")

# Layer = module name under ``repro``.  Order is the update path, then the
# query path, then storage tiers and background machinery.
LAYERS = (
    "fs.vfs", "fs.interceptor", "core.acg", "cluster.client", "sim.rpc",
    "cluster.master", "cluster.index_node", "cluster.wal", "cluster.cache",
    "indexstructures.btree", "indexstructures.hashindex",
    "indexstructures.postings", "query.parser", "query.planner",
    "query.executor", "query.summary", "replication", "cluster.segments",
    "sim.objectstore", "sim.events", "obs",
)

LAYER_FIELDS = (("host_self_s", "s"), ("sim_self_s", "s"), ("calls", "count"))

LADDER_STEPS = 4

# Counts and ratios measured at layer boundaries (unit per name).
LAYER_EXTRAS: Dict[str, str] = {
    "fs.interceptor.dirty_coalesce_ratio": "ratio",
    "cluster.client.batch_size_mean": "count",
    "cluster.client.route_cache_hit_rate": "ratio",
    "cluster.master.rpcs_per_op": "1/op",
    "cluster.client.legs_per_search": "count",
    "cluster.client.legs_pruned_share": "ratio",
    "cluster.client.hedged_legs": "count",
    "cluster.client.rescued_legs": "count",
    "sim.rpc.calls_per_op": "1/op",
    "sim.rpc.bytes_per_op": "B/op",
    "cluster.index_node.result_cache_hit_rate": "ratio",
    "cluster.index_node.commit_on_search_share": "ratio",
    "cluster.wal.fsyncs_per_update": "1/op",
    "cluster.wal.bytes_per_update": "B/op",
    "cluster.cache.ops_per_commit": "count",
    "cluster.cache.commits": "count",
    "cluster.cache.search_commits": "count",
    "indexstructures.btree.height_max": "count",
    "query.executor.results_per_search": "count",
    "replication.records_per_update": "1/op",
    "replication.lag_max": "count",
    "cluster.segments.cache_hit_rate": "ratio",
    "cluster.segments.evictions": "count",
    "cluster.segments.hydration_sim_p95_s": "s",
    "sim.objectstore.gets": "count",
    "sim.objectstore.bytes_get": "B",
    "sim.objectstore.cost_usd_per_kop": "usd/kop",
    "cluster.segments.load_host_self_s": "s",
    "cluster.segments.dump_host_self_s": "s",
    "cluster.segments.bytes_per_file": "B",
    "sim.events.tasks_fired": "count",
    **{f"bench.rate{i}.{field}": "s"
       for i in range(1, LADDER_STEPS + 1)
       for field in ("search_sim_p99_s", "update_sim_p99_s", "lateness_s")},
    "bench.max_rate_in_slo_ops_s": "ops/s",
    "bench.failed_ops_share": "ratio",
    "obs.tracing_host_overhead_ratio": "ratio",
    "obs.sim_identical": "bool",
    "bench.calib_loop_s": "s",
    "bench.host_spread": "ratio",
    "bench.generator_lateness_s": "s",
    "bench.attributed_share": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name → unit, in report order."""
    units = {f"{layer}.{field}": unit
             for layer in LAYERS for field, unit in LAYER_FIELDS}
    units.update(LAYER_EXTRAS)
    return units


def load_benchmark() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The end-to-end metric rows of ``BENCHMARK.json``."""
    return list(benchmark["end_to_end"])
