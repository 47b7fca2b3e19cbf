"""Figure 10 — mixed update/search workload on a 50M-file dataset.

Paper: 10 000 updates to one 1 000-file group, one file-attribute search
every 1 024 updates, a background commit ("timeout") every 500 updates.
Headline: Propeller's average re-indexing (update) latency is 15.6 µs —
250× lower than MySQL's 3 980.9 µs — because each update lands in a WAL
append + in-memory cache against a 1 000-file group index, while MySQL
updates a global B+tree that misses its buffer pool.

Scale substitution: the backing dataset is 1:1000 (50k files) with the
MySQL buffer pool shrunk by the same factor; Propeller's update path does
not depend on the dataset size at all (that's the point).

The instrumented harness run additionally records a timeline (dirty
backlog, cache hit rate) sampled on virtual time and the update-to-
search-visible staleness of every commit; both only *read* the clock, so
the latency distributions are bit-identical either way.
"""

from __future__ import annotations

import pytest

from benchmarks.common import build_minisql, build_propeller
from benchmarks.harness import BenchConfig, default_cfg
from repro.metrics.reporting import format_duration, render_table
from repro.obs.metrics import Histogram
from repro.workloads.mixed import MixedWorkloadConfig, mixed_stream

QUERY = "size>1m"
TIMELINE_INTERVAL_S = 1e-3


def run_propeller(total_files: int, config: MixedWorkloadConfig,
                  instrument: bool = False):
    service, client, paths = build_propeller(
        num_index_nodes=1, total_files=total_files, group_size=1000,
        single_node=True)
    if instrument:
        service.enable_timeline(interval_s=TIMELINE_INTERVAL_S)
        service.enable_freshness()
    group = paths[:1000]
    node = service.index_nodes["in1"]
    # Bounded reservoirs: the stream is long and only summary statistics
    # are reported, so retention need not grow with the run.
    updates = Histogram("propeller updates", reservoir_size=4096)
    searches = Histogram("propeller searches", reservoir_size=4096)
    # The paper uses a request batch size of 128 in both systems; the
    # per-update latency is therefore amortized over batches, with
    # periodic spikes (the bands in Figure 10's scatter).
    client.batch_size = 128
    for op, arg in mixed_stream(group, config):
        if op == "update":
            span = service.clock.span()
            client.index_path(arg, pid=1)
            updates.observe(span.elapsed())
        elif op == "commit":
            node.cache.commit_all()
        else:
            span = service.clock.span()
            client.search(arg)
            searches.observe(span.elapsed())
        # No-op unless a timeline is enabled; reads the clock, never
        # charges it.
        service.timeline.sample_if_due()
    service.timeline.sample_if_due()
    return updates, searches, service


def run_minisql(total_files: int, config: MixedWorkloadConfig):
    db, machine, paths = build_minisql(
        total_files=total_files, buffer_pool_bytes=(2 * 1024**3) // 1000)
    group = paths[:1000]
    import zlib
    ino_of = {p: zlib.crc32(p.encode()) & 0x7FFFFFFF for p in group}
    updates = Histogram("minisql updates", reservoir_size=4096)
    searches = Histogram("minisql searches", reservoir_size=4096)
    db.batch_size = 128
    counter = 0
    for op, arg in mixed_stream(group, config):
        if op == "update":
            counter += 1
            span = machine.clock.span()
            db.insert_file(ino_of[arg], {"size": counter, "mtime": float(counter)},
                           path=arg)
            updates.observe(span.elapsed())
        elif op == "commit":
            db.flush()
        else:
            span = machine.clock.span()
            db.query(arg)
            searches.observe(span.elapsed())
    return updates, searches


def _run(cfg: BenchConfig):
    total_files = cfg.scale(5_000, 20_000, 50_000)
    n_updates = cfg.scale(1_024, 4_096, 10_000)
    config = MixedWorkloadConfig(n_updates=n_updates, search_every=1024,
                                 commit_every=500, query=QUERY)
    prop_up, prop_search, service = run_propeller(
        total_files, config, instrument=cfg.instrument)
    sql_up, sql_search = run_minisql(total_files, config)

    ratio = sql_up.mean / prop_up.mean
    rows = [
        ["Propeller", format_duration(prop_up.mean),
         format_duration(prop_up.maximum),
         format_duration(prop_search.mean if prop_search.count else 0.0)],
        ["MiniSQL", format_duration(sql_up.mean),
         format_duration(sql_up.maximum),
         format_duration(sql_search.mean if sql_search.count else 0.0)],
        ["ratio", f"{ratio:.0f}x", "", ""],
        ["(paper)", "15.6us vs 3980.9us = 250x", "", ""],
    ]
    table = render_table(
        ["system", "mean update latency", "max update", "mean search"],
        rows,
        title=f"Figure 10 — mixed workload ({n_updates} updates, search "
              "every 1024, commit every 500; dataset scaled 1:1000)")
    return (table, prop_up, prop_search, sql_up, sql_search, ratio,
            service, total_files, n_updates)


def run(cfg: BenchConfig):
    (table, prop_up, prop_search, sql_up, sql_search, ratio,
     service, total_files, n_updates) = _run(cfg)
    latency = {
        "prop_update_mean_s": prop_up.mean,
        "prop_update_max_s": prop_up.maximum,
        "sql_update_mean_s": sql_up.mean,
        "sql_update_max_s": sql_up.maximum,
    }
    if prop_search.count:
        latency["prop_search_mean_s"] = prop_search.mean
    if sql_search.count:
        latency["sql_search_mean_s"] = sql_search.mean
    return {
        "name": "fig10_mixed_workload",
        "params": {"total_files": total_files, "n_updates": n_updates,
                   "search_every": 1024, "commit_every": 500, "query": QUERY},
        "texts": {"fig10_mixed_workload": table},
        "latency_s": latency,
        "series": service.timeline.to_dict()["series"] if service.timeline.enabled else {},
        "staleness": service.freshness.summary() if service.freshness.enabled else {},
        "extra": {"update_ratio": ratio},
    }


def test_fig10_mixed_workload(benchmark, record_result):
    (table, prop_up, _, sql_up, _, ratio,
     _, _, _) = _run(default_cfg(instrument=False))
    record_result("fig10_mixed_workload", table)

    # Propeller's update path is microseconds; MiniSQL's is milliseconds.
    assert prop_up.mean < 100e-6
    assert sql_up.mean > 500e-6
    # The paper's headline factor: two orders of magnitude or more.
    assert ratio > 50

    small = MixedWorkloadConfig(n_updates=512, search_every=1024,
                                commit_every=500, query=QUERY)
    benchmark(lambda: run_propeller(2_000, small))
