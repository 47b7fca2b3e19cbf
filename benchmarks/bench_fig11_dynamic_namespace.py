"""Figure 11 — query recall and latency on a dynamic namespace.

Paper: import an Ubuntu snapshot (89K files) into Dataset 1, then copy
files in at 1/2/5 FPS while issuing the query "find files larger than
16MB" continuously for 10 minutes.  Findings to reproduce:

* Propeller's recall is 100% at every point, at every FPS;
* Spotlight's recall tops out below 100% (82% in the paper) and dips
  during re-index passes;
* Propeller's average query latency (~3.1 ms) is about 9× lower than
  Spotlight's (~28.5 ms).

Scale substitution: snapshot at 1:10 (8.9k files); virtual 10 minutes.

The instrumented harness run tracks index freshness on both sides with
two separate trackers (stamps are keyed by inode, so the real-time path
and the crawler each need their own pending map) over one shared metrics
registry — the staleness CDF contrast behind Figure 1 and Figure 11.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from benchmarks.common import build_propeller
from benchmarks.harness import BenchConfig, default_cfg
from repro.baselines.crawler import CrawlerConfig, CrawlerSearchEngine
from repro.metrics.recall import recall
from repro.metrics.reporting import format_duration, render_table
from repro.metrics.stats import TimeSeries
from repro.obs.freshness import FreshnessTracker
from repro.obs.metrics import Histogram
from repro.sim.events import EventLoop
from repro.workloads.datasets import populate_namespace

QUERY = "size>16m"
DURATION_S = 600.0
QUERY_PERIOD_S = 5.0
FPS_LEVELS = (1.0, 2.0, 5.0)
TIMELINE_INTERVAL_S = 5.0


def run_fps(fps: float, snapshot_files: int,
            duration_s: float = DURATION_S,
            instrument: bool = False) -> Dict[str, object]:
    service, client, paths = build_propeller(num_index_nodes=1,
                                             single_node=True)
    vfs, clock = service.vfs, service.clock
    loop = EventLoop(clock)
    crawler_freshness = (FreshnessTracker(service.registry)
                         if instrument else None)
    crawler_kwargs = {}
    if crawler_freshness is not None:
        crawler_kwargs = dict(freshness=crawler_freshness,
                              freshness_node=f"crawler_{fps:g}fps")
    crawler = CrawlerSearchEngine(vfs, loop, CrawlerConfig(
        reindex_rate_fps=100.0, pass_trigger_dirty=32), **crawler_kwargs)
    snapshot = populate_namespace(vfs, snapshot_files, seed=4)
    client.index_paths(snapshot, pid=1)
    client.flush_updates()
    crawler.full_rebuild()
    if instrument:
        # Enabled only after the bulk import so the staleness histograms
        # cover the incremental copies, not the initial load.
        service.enable_timeline(interval_s=TIMELINE_INTERVAL_S)
        service.enable_freshness()

    pp_recall, sl_recall = TimeSeries("PP"), TimeSeries("SL")
    # Bounded reservoirs: queries arrive for the whole simulated run and
    # only summaries are reported.
    pp_latency = Histogram("PP", reservoir_size=4096)
    sl_latency = Histogram("SL", reservoir_size=4096)
    copied, start = 0, clock.now()
    vfs.mkdir("/incoming")
    while clock.now() - start < duration_s:
        loop.run_until(clock.now() + QUERY_PERIOD_S)
        while copied / fps <= clock.now() - start:
            size = 64 * 1024**2 if copied % 4 == 0 else 8192
            ext = ("txt", "so", "log", "png")[copied % 4]
            path = f"/incoming/c{copied:06d}.{ext}"
            vfs.write_file(path, size, pid=9)
            client.index_path(path, pid=9)   # inline indexing
            copied += 1
        truth = [p for p, i in vfs.namespace.files() if i.size > 16 * 1024**2]
        t = clock.now() - start
        span = clock.span()
        pp_result = client.search(QUERY)
        pp_latency.observe(span.elapsed())
        pp_recall.add(t, 100.0 * recall(pp_result, truth))
        span = clock.span()
        sl_result = crawler.query(QUERY)
        sl_latency.observe(span.elapsed())
        sl_recall.add(t, 100.0 * recall(sl_result, truth))
        service.timeline.sample_if_due()
    return {"pp_recall": pp_recall, "sl_recall": sl_recall,
            "pp_latency": pp_latency, "sl_latency": sl_latency,
            "service": service, "crawler_freshness": crawler_freshness}


def _render(runs, snapshot_files: int, duration_s: float):
    rows = []
    for fps, r in runs.items():
        rows.append([
            f"{fps:g} FPS",
            f"{r['pp_recall'].minimum():.1f}/{r['pp_recall'].mean():.1f}",
            f"{r['sl_recall'].minimum():.1f}/{r['sl_recall'].mean():.1f}",
            format_duration(r["pp_latency"].mean),
            format_duration(r["sl_latency"].mean),
            f"{r['sl_latency'].mean / r['pp_latency'].mean:.1f}x",
        ])
    table = render_table(
        ["load", "PP recall min/mean %", "SL recall min/mean %",
         "PP latency", "SL latency", "latency ratio"],
        rows,
        title=f'Figure 11 — dynamic namespace ({snapshot_files} files + '
              f'copies, query "{QUERY}" every {QUERY_PERIOD_S:.0f}s for '
              f"{duration_s:.0f}s; PP=Propeller, SL=crawler analog)")
    from repro.metrics.reporting import render_series
    series_text = "\n\n".join(
        render_series(f"SL recall @ {fps:g} FPS",
                      r["sl_recall"].points[::6], "t (s)", "recall %")
        for fps, r in runs.items())
    return table + "\n\n" + series_text


def _merge_staleness(summaries):
    merged = {"worst_s": 0.0, "pending": 0, "dropped": 0, "nodes": {}}
    for summary in summaries:
        if not summary:
            continue
        merged["worst_s"] = max(merged["worst_s"], summary["worst_s"])
        merged["pending"] += summary["pending"]
        merged["dropped"] += summary["dropped"]
        merged["nodes"].update(summary["nodes"])
    return merged


def run(cfg: BenchConfig):
    snapshot_files = cfg.scale(1_000, 8_900, 89_000)
    duration_s = cfg.scale(120.0, DURATION_S)
    fps_levels = cfg.scale((2.0,), FPS_LEVELS)
    runs = {fps: run_fps(fps, snapshot_files, duration_s,
                         instrument=cfg.instrument)
            for fps in fps_levels}

    latency, series, staleness_parts = {}, {}, []
    for fps, r in runs.items():
        latency[f"pp_latency_mean_s_{fps:g}fps"] = r["pp_latency"].mean
        latency[f"sl_latency_mean_s_{fps:g}fps"] = r["sl_latency"].mean
        series[f"pp_recall_{fps:g}fps"] = [list(p) for p in r["pp_recall"].points]
        series[f"sl_recall_{fps:g}fps"] = [list(p) for p in r["sl_recall"].points]
        service = r["service"]
        if service.timeline.enabled:
            for name, points in service.timeline.to_dict()["series"].items():
                series[f"{name}_{fps:g}fps"] = points
        if service.freshness.enabled:
            staleness_parts.append(service.freshness.summary())
        if r["crawler_freshness"] is not None:
            staleness_parts.append(r["crawler_freshness"].summary())
    return {
        "name": "fig11_dynamic_namespace",
        "params": {"snapshot_files": snapshot_files, "duration_s": duration_s,
                   "fps_levels": list(fps_levels), "query": QUERY},
        "texts": {"fig11_dynamic_namespace":
                  _render(runs, snapshot_files, duration_s)},
        "latency_s": latency,
        "series": series,
        "staleness": _merge_staleness(staleness_parts),
        "extra": {"mean_recall": {f"{fps:g}": {"pp": r["pp_recall"].mean(),
                                               "sl": r["sl_recall"].mean()}
                                  for fps, r in runs.items()}},
    }


def test_fig11_dynamic_namespace(benchmark, record_result):
    cfg = default_cfg(instrument=False)
    snapshot_files = cfg.scale(1_000, 8_900, 89_000)
    runs = {fps: run_fps(fps, snapshot_files) for fps in FPS_LEVELS}
    record_result("fig11_dynamic_namespace",
                  _render(runs, snapshot_files, DURATION_S))

    for fps, r in runs.items():
        # Propeller: recall is 100% at every sampled point.
        assert r["pp_recall"].minimum() == 100.0
        # Crawler: mean recall below 100%, dips under load.
        assert r["sl_recall"].mean() < 100.0
        # Propeller answers much faster (paper: ~9x).
        assert r["sl_latency"].mean / r["pp_latency"].mean > 3.0

    benchmark(lambda: run_fps(5.0, 1_000))
