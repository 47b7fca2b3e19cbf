"""Tiered index storage — cold-start warming and cost-vs-latency tradeoff.

Two experiments against a deployment whose partitions are all frozen to
the simulated object store:

* **Cache warming**: after a cold start (resident bodies and segment
  cache dropped) the first query hydrates every frozen partition from
  the object store; subsequent queries are served from the node-local
  segment cache.  The series charts per-query latency converging to the
  warm floor.

* **Cost vs latency**: sweep the segment-cache byte budget.  A small
  cache evicts (or outright rejects) hydrated views, so every query
  pays object-store GETs — higher simulated request dollars *and*
  higher latency.  A budget that holds the working set pays for the
  hydrations once.  The curve is the tradeoff tiering navigates: RAM
  spent on cache vs dollars-plus-latency spent on the cold tier.

Hydration latency itself (first-byte + bandwidth + decompression
charge) is recorded by the Index Node in the ``tier.hydration_s``
histogram; its p95 is exported as a latency key so CI can put a budget
on it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from benchmarks.common import build_propeller
from benchmarks.harness import BenchConfig, default_cfg
from repro.metrics.reporting import render_table

QUERY = "size>16m"
RAM_BYTES = 12 * 1024**2
FREEZE_AGE_S = 5.0


def build_frozen(total_files: int, nodes: int,
                 cache_budget_bytes: int = RAM_BYTES):
    """A deployment with every partition frozen to the cold tier."""
    service, client, _ = build_propeller(
        num_index_nodes=nodes, total_files=total_files,
        group_size=1000, ram_bytes=RAM_BYTES)
    # Same isolation as fig09: measure index/segment access, not held
    # answers or summary pruning (guarded elsewhere).
    client.prune_searches = False
    service.set_tiering(True, freeze_age_s=FREEZE_AGE_S, min_bytes=1,
                        cache_budget_bytes=cache_budget_bytes)
    service.advance(30.0)
    return service, client


def warming_series(total_files: int, nodes: int,
                   samples: int = 8) -> List[float]:
    """Per-query latency from a cold start: hydration, then cache hits."""
    service, client = build_frozen(total_files, nodes)
    service.drop_caches()
    latencies = []
    for _ in range(samples):
        span = service.clock.span()
        client.search(QUERY)
        latencies.append(span.elapsed())
        service.pump()
    return latencies


def cost_latency_point(total_files: int, nodes: int, budget: int,
                       queries: int = 10) -> Dict[str, float]:
    """Steady-state warm latency + accrued cold-tier dollars at one
    segment-cache budget."""
    service, client = build_frozen(total_files, nodes,
                                   cache_budget_bytes=budget)
    service.drop_caches()
    client.search(QUERY)  # warm what fits
    service.pump()
    cost_before = service.object_store.simulated_cost_usd()
    samples = []
    for _ in range(queries):
        span = service.clock.span()
        client.search(QUERY)
        samples.append(span.elapsed())
        service.pump()
    stats = [n.segment_cache.stats for n in service.index_nodes.values()]
    lookups = sum(s.hits + s.misses for s in stats)
    hits = sum(s.hits for s in stats)
    hydration_p95 = service.registry.histogram("tier.hydration_s").p95
    return {
        "warm_s": sum(samples) / len(samples),
        "query_cost_usd": (service.object_store.simulated_cost_usd()
                           - cost_before) / queries,
        "hit_rate": hits / lookups if lookups else 0.0,
        "hydration_p95_s": hydration_p95,
    }


def _budgets(cfg: BenchConfig) -> Tuple[int, ...]:
    return cfg.scale(
        (128 * 1024, 512 * 1024, 4 * 1024**2),
        (128 * 1024, 512 * 1024, 2 * 1024**2, 12 * 1024**2),
        (128 * 1024, 512 * 1024, 2 * 1024**2, 12 * 1024**2),
    )


def _sweep(cfg: BenchConfig):
    total = cfg.scale(5_000, 20_000, 50_000)
    nodes = cfg.scale(1, 2, 2)
    series = warming_series(total, nodes)
    budgets = _budgets(cfg)
    points = {b: cost_latency_point(total, nodes, b) for b in budgets}

    warm_rows = [["query #"] + [str(i + 1) for i in range(len(series))],
                 ["latency (s)"] + [f"{s:.4f}" for s in series]]
    warm_table = render_table(
        warm_rows[0], [warm_rows[1]],
        title=f"Tiered storage — cold-start cache warming, {total} files, "
              f"{nodes} node(s), query \"{QUERY}\"")

    cost_rows = []
    for b in budgets:
        p = points[b]
        cost_rows.append([f"{b // 1024}KiB", f"{p['warm_s']:.5f}",
                          f"{p['query_cost_usd'] * 1e6:.3f}",
                          f"{p['hit_rate']:.2f}",
                          f"{p['hydration_p95_s']:.4f}"])
    cost_table = render_table(
        ["cache budget", "warm (s)", "USD/query (µ$)", "hit rate",
         "hydration p95 (s)"],
        cost_rows,
        title="Tiered storage — segment-cache budget vs latency and "
              "simulated cold-tier cost")
    return total, nodes, series, budgets, points, warm_table, cost_table


def run(cfg: BenchConfig):
    total, nodes, series, budgets, points, warm_table, cost_table = \
        _sweep(cfg)
    latency = {"cold_start": series[0], "warmed": series[-1]}
    for b in budgets:
        latency[f"warm_budget_{b // 1024}k"] = points[b]["warm_s"]
    latency["hydration_p95"] = max(
        p["hydration_p95_s"] for p in points.values())
    return {
        "name": "tiered_storage",
        "params": {"total_files": total, "nodes": nodes,
                   "ram_bytes": RAM_BYTES, "query": QUERY,
                   "cache_budgets": list(budgets)},
        "texts": {"tiered_storage_warming": warm_table,
                  "tiered_storage_cost_latency": cost_table},
        "latency_s": latency,
        "extra": {
            "warming_series": series,
            "cost_latency": {str(b): points[b] for b in budgets},
        },
    }


def test_tiered_cold_start_warms_to_floor(record_result):
    total, nodes, series, budgets, points, warm_table, cost_table = \
        _sweep(default_cfg())
    record_result("tiered_storage_warming", warm_table)
    record_result("tiered_storage_cost_latency", cost_table)
    # The first (hydrating) query is far above the warm floor …
    assert series[0] > 10 * series[-1], series
    # … and the floor is reached immediately after and stays flat.
    assert max(series[1:]) <= 1.5 * min(series[1:]), series


def test_tiered_cost_latency_tradeoff():
    cfg = default_cfg()
    total = cfg.scale(5_000, 20_000, 50_000)
    nodes = cfg.scale(1, 2, 2)
    budgets = _budgets(cfg)
    points = {b: cost_latency_point(total, nodes, b) for b in budgets}
    starved, rich = points[budgets[0]], points[budgets[-1]]
    # A starved cache re-fetches from the cold tier: strictly more
    # dollars per query and slower than a cache that holds the set.
    assert starved["query_cost_usd"] > rich["query_cost_usd"], points
    assert starved["warm_s"] > rich["warm_s"], points
    assert starved["hit_rate"] < rich["hit_rate"], points
    # With the working set held, steady-state queries are free of
    # per-query cold-tier request charges.
    assert rich["query_cost_usd"] < 1e-6, points


def test_hydration_latency_budget():
    """CI latency budget: hydrating one ~1000-file segment must stay
    under 100 ms simulated (first-byte + bandwidth + decompression)."""
    cfg = default_cfg()
    total = cfg.scale(5_000, 20_000, 50_000)
    nodes = cfg.scale(1, 2, 2)
    point = cost_latency_point(total, nodes, RAM_BYTES)
    assert 0.0 < point["hydration_p95_s"] <= 0.100, point


def test_tiered_storage_deterministic():
    cfg = BenchConfig(tier="smoke")
    assert _sweep(cfg)[2] == _sweep(cfg)[2]
