"""Figure 9 / Table IV — cluster file-search latency, 1–8 Index Nodes.

Paper: the query "find files larger than 16MB" runs 11 times per cluster
configuration on 50M- and 100M-file datasets after a fresh boot; "cold" is
the first query (nothing cached), "warm" averages the remaining 10.
Findings to reproduce:

* latency falls monotonically (and steeply) as Index Nodes are added;
* the warm-latency improvement is *super-linear* around the point where
  each node's share of the indices first fits in its RAM (paper: 1→4
  nodes on 100M, 1→2 on 50M) — page faults vanish.

Scale substitution: datasets at 1:1000 (50k/100k files) with per-node RAM
scaled down the same way (16 MB), preserving the indices-to-RAM ratio
that creates the memory-fit knee.

The instrumented run (`run(cfg)` with ``cfg.instrument``) additionally
records timeline series (cache hit rate, load skew, dirty backlog) and a
staleness probe; both charge zero virtual time, so the simulated latency
numbers are bit-identical with instrumentation on or off — the driver
below calls the same ``service.pump()`` either way.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from benchmarks.common import build_propeller
from benchmarks.harness import BenchConfig, default_cfg
from repro.metrics.reporting import render_table

QUERY = "size>16m"
RAM_BYTES = 12 * 1024**2
NODE_COUNTS = (1, 2, 4, 6, 8)
TIMELINE_INTERVAL_S = 0.005
FRESHNESS_PROBE_FILES = 64


def measure(total_files: int, nodes: int,
            instrument: bool = False) -> Tuple[float, float, dict, dict, dict]:
    service, client, paths = build_propeller(
        num_index_nodes=nodes, total_files=total_files,
        group_size=1000, ram_bytes=RAM_BYTES)
    # This benchmark isolates the paper's RAM-residency knee: the warm
    # samples repeat one query, which summary pruning and the answers
    # the client holds would otherwise answer without ever touching the
    # indices (flat ~0.2 ms at every node count).  Pruning is measured
    # elsewhere (table3); switching it off here also turns held answers
    # off, so warm latency reflects index scans vs RAM.
    client.prune_searches = False
    if instrument:
        timeline = service.enable_timeline(interval_s=TIMELINE_INTERVAL_S)
        service.enable_freshness()
    service.drop_caches()
    span = service.clock.span()
    client.search(QUERY)
    cold = span.elapsed()
    # pump() is part of the measured driver in BOTH modes: with a
    # timeline enabled it also samples, which must not (and does not)
    # change the simulated numbers.
    service.pump()
    warm_samples = []
    for _ in range(10):
        span = service.clock.span()
        client.search(QUERY)
        warm_samples.append(span.elapsed())
        service.pump()
    warm = sum(warm_samples) / len(warm_samples)
    series: dict = {}
    staleness: dict = {}
    if instrument:
        # Post-measurement freshness probe: re-index a handful of files
        # and commit, measuring change-to-search-visible staleness on
        # this deployment.  Runs after the latency measurements.
        client.index_paths(paths[:FRESHNESS_PROBE_FILES], pid=1)
        client.flush_updates()
        service.advance(1.0)
        service.commit_all()
        timeline.sample()
        series = timeline.to_dict()["series"]
        staleness = service.freshness.summary()
    # Routing-epoch figures of merit: how far off the hot path the
    # Master is (route RPCs amortized over every indexed update) and how
    # well the client's route cache serves placement locally.
    metrics = {
        "master.route_rpcs_per_update":
            service.registry.value("cluster.master.route_rpcs_per_update"),
        "cluster.client.route_cache_hit_rate":
            service.registry.value("cluster.client.route_cache_hit_rate"),
    }
    return cold, warm, series, staleness, metrics


def measure_tiered(total_files: int, nodes: int) -> Tuple[float, float]:
    """The fig09 protocol with tiered storage on.

    Every partition is frozen to the simulated object store before the
    cold start, so the cold query pays hydration (object-store GETs) and
    the warm queries run against cached segment views — which never
    charge page faults, the cost that creates the live path's
    super-linear memory knee past the RAM budget.
    """
    service, client, _ = build_propeller(
        num_index_nodes=nodes, total_files=total_files,
        group_size=1000, ram_bytes=RAM_BYTES)
    client.prune_searches = False
    service.set_tiering(True, freeze_age_s=5.0, min_bytes=1)
    service.advance(30.0)  # everything goes cold and freezes
    service.drop_caches()
    span = service.clock.span()
    client.search(QUERY)
    cold = span.elapsed()
    service.pump()
    warm_samples = []
    for _ in range(10):
        span = service.clock.span()
        client.search(QUERY)
        warm_samples.append(span.elapsed())
        service.pump()
    return cold, sum(warm_samples) / len(warm_samples)


def _sweep(cfg: BenchConfig):
    datasets = cfg.scale((5_000, 10_000), (25_000, 50_000), (50_000, 100_000))
    node_counts = cfg.scale((1, 2, 4), (1, 2, 4, 8), NODE_COUNTS)
    results: Dict[int, List[Tuple[float, float]]] = {}
    series: dict = {}
    staleness: dict = {}
    metrics: dict = {}
    tiered: Dict[int, List[Tuple[float, float]]] = {}
    for total in datasets:
        results[total] = []
        tiered[total] = []
        for n in node_counts:
            cold, warm, run_series, run_staleness, run_metrics = measure(
                total, n, instrument=cfg.instrument)
            results[total].append((cold, warm))
            tiered[total].append(measure_tiered(total, n))
            # Keep the telemetry of the largest configuration measured.
            if run_series:
                series, staleness = run_series, run_staleness
            metrics = run_metrics

    rows = []
    for total in datasets:
        rows.append([f"{total // 1000}k (cold)"] +
                    [f"{c:.3f}" for c, _ in results[total]])
    for total in datasets:
        rows.append([f"{total // 1000}k (warm)"] +
                    [f"{w:.5f}" for _, w in results[total]])
    for total in datasets:
        rows.append([f"{total // 1000}k (warm, tiered)"] +
                    [f"{w:.5f}" for _, w in tiered[total]])
    table = render_table(
        ["dataset / nodes"] + [str(n) for n in node_counts], rows,
        title='Figure 9 / Table IV — cluster search latency (simulated s), '
              f'query "{QUERY}", datasets scaled 1:1000, RAM/node '
              f'{RAM_BYTES // 1024**2} MB')
    return (table, results, tiered, datasets, node_counts, series, staleness,
            metrics)


def run(cfg: BenchConfig):
    (table, results, tiered, datasets, node_counts, series, staleness,
     metrics) = _sweep(cfg)
    latency = {}
    for total in datasets:
        for n, (cold, warm) in zip(node_counts, results[total]):
            latency[f"cold_{total // 1000}k_{n}nodes"] = cold
            latency[f"warm_{total // 1000}k_{n}nodes"] = warm
        for n, (cold, warm) in zip(node_counts, tiered[total]):
            latency[f"coldtier_{total // 1000}k_{n}nodes"] = cold
            latency[f"warmtier_{total // 1000}k_{n}nodes"] = warm
    return {
        "name": "fig09_cluster_scaling",
        "params": {"datasets": list(datasets), "node_counts": list(node_counts),
                   "ram_bytes": RAM_BYTES, "query": QUERY},
        "texts": {"fig09_cluster_scaling": table},
        "latency_s": latency,
        "series": series,
        "staleness": staleness,
        "metrics": metrics,
    }


def test_fig09_cluster_search_scaling(record_result):
    cfg = default_cfg()
    table, results, _, datasets, node_counts, _, _, _ = _sweep(cfg)
    record_result("fig09_cluster_scaling", table)

    for total in datasets:
        colds = [c for c, _ in results[total]]
        warms = [w for _, w in results[total]]
        # Monotone improvement with more nodes (both cold and warm).
        assert colds[0] > colds[-1]
        assert warms[0] > warms[-1]
        # Large overall scaling factor, as in Table IV.
        assert warms[0] / warms[-1] > 4.0
    # Super-linear region: somewhere the warm speedup from one step
    # exceeds the node-count ratio of that step (the memory-fit knee).
    knee_found = False
    for total in datasets:
        warms = [w for _, w in results[total]]
        for i in range(len(node_counts) - 1):
            ratio = warms[i] / warms[i + 1]
            nodes_ratio = node_counts[i + 1] / node_counts[i]
            if ratio > nodes_ratio * 1.2:
                knee_found = True
    assert knee_found, results


def test_fig09_tiering_flattens_memory_knee():
    """Acceptance guard for tiered storage: past the RAM budget the live
    path's warm latency grows *super-linearly* in dataset size (page
    faults), while the tiered path — cold partitions frozen, searches
    served from cached segment views that never charge page faults —
    stays at worst linear (≤1.5x per-file slack), and beats the live
    path outright at the past-RAM point."""
    small, large = 10_000, 50_000
    _, warm_small_live, *_ = measure(small, 1)
    _, warm_large_live, *_ = measure(large, 1)
    _, warm_small_tier = measure_tiered(small, 1)
    _, warm_large_tier = measure_tiered(large, 1)
    scale = large / small
    # The live knee exists: super-linear growth past the RAM budget.
    assert warm_large_live > warm_small_live * scale * 1.2, \
        (warm_small_live, warm_large_live)
    # Tiering flattens it: per-file warm cost grows by at most 1.5x.
    assert warm_large_tier <= warm_small_tier * scale * 1.5, \
        (warm_small_tier, warm_large_tier)
    # And tiering wins outright where the RAM budget is exceeded.
    assert warm_large_tier <= warm_large_live, \
        (warm_large_tier, warm_large_live)


def test_fig09_instrumentation_bit_identical():
    """The acceptance invariant: timeline + staleness instrumentation
    leaves the simulated latencies bit-identical."""
    plain = measure(5_000, 2, instrument=False)
    instrumented = measure(5_000, 2, instrument=True)
    assert plain[0] == instrumented[0]      # cold, exactly
    assert plain[1] == instrumented[1]      # warm, exactly
    assert instrumented[2], "instrumented run should produce series"
    assert instrumented[3]["nodes"], "staleness probe should observe commits"


def test_fig09_master_off_the_hot_path():
    """Acceptance guard for epoch-versioned routing: with client route
    caches, the Master answers at least 10x fewer routing RPCs per
    indexed update than the legacy one-route-call-per-batch protocol
    (1/128 at the standard batch_size=128)."""
    *_, metrics = measure(5_000, 4)
    per_update = metrics["master.route_rpcs_per_update"]
    assert per_update <= (1 / 128) / 10, metrics
    assert metrics["cluster.client.route_cache_hit_rate"] >= 0.9, metrics


def test_fig09_benchmark(benchmark):
    benchmark(lambda: measure(10_000, 2))
