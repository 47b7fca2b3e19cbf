"""One command per workload.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                        [--quick] [--out FILE]

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a short untraced pass and then repeats exactly the
same ops with the layer wrappers installed, giving the per-layer metrics,
the tracing overhead and the simulated-clock identity check.  Every
metric is printed by name with its unit, answers are checked against a
brute-force oracle, and the last line of standard output is the JSON
result.  Host numbers are this sandbox's, not a device's.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

SETUP_REPS = 3
ORACLE_QUERIES = 16
UNTRACED_SHARE = 0.25
REST_S = 6.0


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _build(wl: Any, setup_reps: int) -> Any:
    """Set the workload's deployment up ``SETUP_REPS`` times (the median
    is ``setup_s``) and keep the last; ingest builds one per repetition
    inside its window instead."""
    from perf.harness import settle
    if wl.fresh_per_rep:
        return None
    dep = None
    for _ in range(setup_reps):
        dep = None
        gc.unfreeze()
        gc.collect()
        dep = wl.fresh_deployment()
    settle(dep)
    return dep


def _sim_metrics(wl: Any, meter: Any, dep: Any) -> Dict[str, float]:
    """The end-to-end metrics carried by the simulated clock."""
    from perf.harness import tail_mean
    samples = wl.samples(meter, dep)
    upd = wl.update_meter(meter)
    return {
        "search_sim_mean_s": statistics.fmean(samples["search"]),
        "search_sim_tail_s": tail_mean(samples["search"]),
        "update_sim_mean_s": upd.sim_s["update"] / upd.count["update"],
        "update_sim_tail_s": tail_mean(samples["update"]),
        "freshness_sim_mean_s": statistics.fmean(samples["freshness"]),
        "sim_ops_per_s": wl.throughput(meter),
    }


def _host_metrics(wl: Any, meter: Any) -> Dict[str, float]:
    """The end-to-end metrics carried by the host clock: medians over
    the window's chunks of identical-in-distribution work, calibrated by
    the run's yardstick timings (see ``harness.host_scale``)."""
    from perf.harness import host_scale
    upd_meter = wl.update_meter(meter)
    scale = host_scale(meter.calib + wl.setup_calib + upd_meter.calib)
    return {
        "host_ops_per_cpu_s": _median(
            meter.chunk_series("ops", "cpu_ns", 1e9)) / scale,
        "host_search_us_per_op": _median(
            meter.chunk_series("search_ns", "search_ops", 1e-3)) * scale,
        "host_update_us_per_op": _median(
            upd_meter.chunk_series("update_ns", "update_ops", 1e-3)) * scale,
        "setup_s": _median(wl.setup_cpu_s) * scale,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _oracle(wl: Any, dep: Any) -> Tuple[int, int]:
    """(queries checked, mismatches) — untimed, after the window."""
    from perf.harness import oracle_check
    queries = wl.oracle_queries(dep, ORACLE_QUERIES)
    mismatches = oracle_check(dep, queries) + wl.extra_oracle(dep, queries)
    return len(queries), mismatches


def _measure(name: str, seed: int, seconds: float, quick: bool,
             limits: Optional[List[int]] = None,
             tracer: Any = None, setup_reps: int = 1) -> Dict[str, Any]:
    """One pass of one workload: set-up, window, oracle."""
    from perf.harness import Meter, index_bytes_per_file
    from perf.layers import Observer
    from perf.workloads import WORKLOADS
    wl = WORKLOADS[name](seed, quick)
    wl.tracing = tracer is not None
    wl.observer = Observer(tracer)
    dep = _build(wl, setup_reps)
    meter = Meter()
    meter.tracer = tracer
    counts = wl.window(dep, meter, seconds, limits)
    dep = dep if dep is not None else wl.last_dep
    sim = _sim_metrics(wl, meter, dep)
    host = _host_metrics(wl, meter)
    sim_end_s = 0.0 if wl.fresh_per_rep else dep.clock.now()
    # Footprint at rest: everything committed, background work (commit
    # timeouts, re-freezing) given time to finish.
    dep.service.commit_all()
    dep.service.advance(REST_S)
    footprint = index_bytes_per_file(dep)
    checked, mismatches = _oracle(wl, dep)
    return {
        "wl": wl, "meter": meter, "counts": counts, "sim": sim,
        "host": host, "footprint": footprint,
        "sim_end_s": sim_end_s,
        "attempted": meter.ops + checked,
        "failed": wl.failed + mismatches,
    }


def _diagnostics(passed: Dict[str, Any]) -> Dict[str, float]:
    """Trust-in-the-host-numbers rows (``bench.*``)."""
    from perf.harness import iqr_spread, knee_rate
    from perf.spec import LADDER_STEPS
    wl, meter = passed["wl"], passed["meter"]
    out = {
        "bench.calib_loop_s": _median(meter.calib),
        "bench.host_spread": iqr_spread(meter.calib),
        "bench.generator_lateness_s": 0.0,
        "bench.max_rate_in_slo_ops_s": 0.0,
        "bench.failed_ops_share": passed["failed"] / passed["attempted"],
    }
    steps = wl.steps
    for index in range(LADDER_STEPS):
        step = steps[index] if index < len(steps) else None
        prefix = f"bench.rate{index + 1}."
        out[prefix + "search_sim_p99_s"] = step.search_p99_s if step else 0.0
        out[prefix + "update_sim_p99_s"] = step.update_p99_s if step else 0.0
        out[prefix + "lateness_s"] = step.lateness_last_s if step else 0.0
    if steps:
        out["bench.generator_lateness_s"] = steps[0].lateness_last_s
        out["bench.max_rate_in_slo_ops_s"] = knee_rate(steps)[0]
    return out


def run_untraced(name: str, seed: int, seconds: float,
                 quick: bool) -> Dict[str, Any]:
    """``--trace 0``: the end-to-end metrics."""
    passed = _measure(name, seed, seconds, quick, setup_reps=SETUP_REPS)
    metrics = dict(passed["sim"])
    metrics["index_bytes_per_file"] = passed["footprint"]
    metrics.update(passed["host"])
    return {"metrics": metrics, "diagnostics": _diagnostics(passed),
            "attempted": passed["attempted"], "failed": passed["failed"],
            "counts": passed["counts"]}


def run_traced(name: str, seed: int, seconds: float, quick: bool,
               trace_out: Optional[str] = None) -> Dict[str, Any]:
    """``--trace 1``: an untraced pass, then the same ops traced."""
    from perf.layers import layer_metrics
    from perf.layertrace import LayerTracer
    plain = _measure(name, seed, seconds * UNTRACED_SHARE, quick)
    counts = plain["counts"]
    plain_cpu = plain["meter"].total_cpu_s()
    plain_digest = (plain["sim"], plain["meter"].sim, plain["sim_end_s"])
    diagnostics = _diagnostics(plain)
    del plain["wl"], plain["meter"]
    gc.unfreeze()
    gc.collect()
    tracer = LayerTracer(keep_spans=trace_out is not None)
    tracer.install()
    try:
        traced = _measure(name, seed, seconds, quick, limits=counts,
                          tracer=tracer)
    finally:
        tracer.uninstall()
    wl, meter = traced["wl"], traced["meter"]
    identical = plain_digest == (traced["sim"], meter.sim,
                                 traced["sim_end_s"])
    metrics = layer_metrics(tracer, wl.observer, meter,
                            wl.write_closes, wl.dirty_drained)
    metrics.update(diagnostics)
    metrics.update({k: v for k, v in _diagnostics(traced).items()
                    if k.startswith("bench.rate")
                    or k in ("bench.generator_lateness_s",
                             "bench.max_rate_in_slo_ops_s")})
    metrics["bench.failed_ops_share"] = (
        (plain["failed"] + traced["failed"])
        / (plain["attempted"] + traced["attempted"]))
    metrics["obs.tracing_host_overhead_ratio"] = (
        meter.total_cpu_s() / plain_cpu)
    metrics["obs.sim_identical"] = 1.0 if identical else 0.0
    if trace_out is not None:
        tracer.write_spans(trace_out)
    return {"metrics": metrics, "diagnostics": {},
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": (plain["failed"] + traced["failed"]
                       + (0 if identical else 1)),
            "counts": counts}


def _clock(name: str) -> str:
    """Which clock carries a metric (printed beside every number)."""
    if "_sim_" in name or name.startswith("sim_") or name.endswith("sim_self_s"):
        return "sim"
    if name.startswith(("host_", "setup_", "peak_")) or name.endswith("host_self_s"):
        return "host"
    return "-"


def _report(args: argparse.Namespace, result: Dict[str, Any],
            units: Dict[str, str], bounds: Dict[str, float]) -> None:
    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  ops/phase={result['counts']}")
    print("# host numbers are this sandbox's, not a device's, calibrated "
          "to a 30 ms yardstick")
    for name, value in result["metrics"].items():
        print(f"{name:48s} {value:>16.6g} {units[name]:8s} {_clock(name)}")
    for name, value in result["diagnostics"].items():
        print(f"{name:48s} {value:>16.6g}")
    spread = result["diagnostics"].get("bench.host_spread")
    host_bound = min(b for n, b in bounds.items() if n.startswith("host_"))
    if spread is not None and spread > host_bound / 2:
        print(f"# WARNING: bench.host_spread {spread:.3f} exceeds half the "
              f"tightest host bound ({host_bound}): this host is noisy now")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="about a tenth of the size, for tests")
    parser.add_argument("--out", help="append the JSON result to this file; "
                        "with --trace 1 also write FILE.trace.json")
    args = parser.parse_args(argv)
    try:
        from perf.spec import WORKLOADS, load_benchmark, per_layer_units
        import repro  # noqa: F401  (the program under test)
        benchmark = load_benchmark()
    except (ImportError, OSError) as exc:
        print(f"perf.run: cannot load the program under test: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    e2e = {m["name"]: m for m in benchmark["end_to_end"]}
    if args.trace:
        units = per_layer_units()
        result = run_traced(args.workload, args.seed, args.seconds,
                            args.quick,
                            args.out + ".trace.json" if args.out else None)
    else:
        units = {name: m["unit"] for name, m in e2e.items()}
        result = run_untraced(args.workload, args.seed, args.seconds,
                              args.quick)
    missing = sorted(set(units) ^ set(result["metrics"]))
    if missing:
        print(f"perf.run: metric set differs from BENCHMARK.json: {missing}",
              file=sys.stderr)
        return 3
    _report(args, result, units, {n: m["bound"] for n, m in e2e.items()})
    line = {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    if args.out:
        record = dict(line, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      quick=args.quick, diagnostics=result["diagnostics"])
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
