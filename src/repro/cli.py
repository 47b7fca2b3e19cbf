"""Command-line interface.

Main subcommands::

    repro demo       [--nodes N] [--files M]         run a live cluster demo
    repro query      QUERY [--files M] [--nodes N] [--profile]
                                                      build a namespace, search it
    repro profile    QUERY [--files M] [--nodes N] [--json]
                                                      span-tree breakdown of a query
    repro partition  (--trace FILE | --app NAME[:SCALE]) [--k K]
                                                      ACG stats + partitioning
    repro results    [--dir PATH]                     show regenerated tables
    repro bench      [NAMES...] [--smoke|--full] [--out DIR]
                                                      run benches -> BENCH_*.json
    repro bench      --compare OLD NEW [--threshold T]
                                                      fail on latency regressions
    repro chaos      [--seed S] [--steps K] [--nodes N] [--json]
                                                      deterministic fault injection
                                                      + crash-consistency audit
    repro status     [--nodes N] [--rf R] [--chaos-seed S] [--json]
                                                      health dashboard: verdicts,
                                                      gauges, SLOs, recent events
    repro events     [--type T] [--since T] [--partition P] [--json]
                                                      the cluster event journal

``main(argv)`` returns a process exit code and prints to stdout, so the
CLI is unit-testable without subprocesses.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import List, Optional, Sequence

from repro import IndexKind, PropellerService
from repro.core.metis import k_way_partition
from repro.core.traceio import acg_from_trace
from repro.metrics.reporting import format_duration, render_table
from repro.workloads.datasets import populate_namespace


def _build_service(nodes: int, files: int):
    service = PropellerService(num_index_nodes=nodes)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    client.create_index("by_mtime", IndexKind.BTREE, ["mtime"])
    client.create_index("by_kw", IndexKind.HASH, ["keyword"])
    paths = populate_namespace(service.vfs, files, seed=1)
    client.index_paths(paths, pid=1)
    client.flush_updates()
    service.commit_all()
    return service, client


def cmd_demo(args: argparse.Namespace) -> int:
    """``repro demo``: build a cluster, index a namespace, run sample queries."""
    service, client = _build_service(args.nodes, args.files)
    print(f"cluster: 1 master + {args.nodes} index node(s); "
          f"{service.total_indexed_files()} files in {service.acg_count()} ACGs")
    for query in ("size>16m", "keyword:firefox", "size>1m & mtime<1day"):
        span = service.clock.span()
        results = client.search(query)
        print(f"  {query:<24} -> {len(results):5d} files "
              f"in {format_duration(span.elapsed())} (simulated)")
    loads = [(n, service.master.partitions.node_load(n))
             for n in service.master.index_nodes]
    print("node loads: " + ", ".join(f"{n}={load}" for n, load in loads))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: search a generated namespace and print matches."""
    service, client = _build_service(args.nodes, args.files)
    if getattr(args, "profile", False):
        service.enable_tracing()
    span = service.clock.span()
    try:
        results = client.search(args.query)
    except Exception as exc:  # surface parse errors as CLI errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in results[: args.limit]:
        print(path)
    suppressed = len(results) - min(len(results), args.limit)
    if suppressed > 0:
        print(f"... and {suppressed} more")
    print(f"# {len(results)} matches in {format_duration(span.elapsed())} "
          "(simulated)")
    if getattr(args, "profile", False):
        from repro.obs.profile import QueryProfile

        root = service.tracer.last_root("search")
        if root is not None:
            print()
            print(QueryProfile(root, query=args.query).render())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: EXPLAIN ANALYZE a query on a demo cluster."""
    import json as _json

    from repro.obs.export import render_registry

    service, client = _build_service(args.nodes, args.files)
    service.enable_tracing()
    try:
        profile = client.profile_search(args.query)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        out = profile.to_dict()
        out["trace"] = {"roots_dropped": service.tracer.roots_dropped}
        print(_json.dumps(out, indent=2, sort_keys=True))
        return 0
    print(profile.render())
    print()
    print(render_registry(service.registry, prefix="cluster.client",
                          title="client metrics"))
    batching = _render_batching(service.registry)
    if batching:
        print()
        print(batching)
    tiers = _render_memory_tiers(service)
    if tiers:
        print()
        print(tiers)
    tail = _render_tail_latency(service.registry)
    if tail:
        print()
        print(tail)
    dropped = getattr(service.tracer, "roots_dropped", 0)
    if dropped:
        print()
        print(f"trace: {dropped} root span(s) dropped (ring full — "
              "raise Tracer max_roots to retain them)")
    return 0


def _render_batching(registry) -> str:
    """The group-commit readout: how large update envelopes actually
    ran (``update.batch_size``) and how much each node's WAL got out of
    every simulated fsync — the two numbers that say whether the
    batched hot path is earning its keep."""
    from repro.obs.metrics import Histogram

    rows = []
    for name, instrument in registry.items("update.batch_size"):
        if not isinstance(instrument, Histogram) or not instrument.count:
            continue
        rows.append(["update.batch_size", int(instrument.count),
                     f"{instrument.mean:.1f}", f"{instrument.p50:.0f}",
                     f"{instrument.maximum:.0f}", ""])
    for name, instrument in registry.items("cluster."):
        if not name.endswith(".wal.fsyncs"):
            continue
        node = name[len("cluster."):-len(".wal.fsyncs")]
        fsyncs = instrument.value
        if not fsyncs:
            continue
        per = registry.value(f"cluster.{node}.wal.bytes_per_fsync")
        rows.append([f"{node}.wal", int(fsyncs), "", "", "",
                     f"{per:.0f} B/fsync"])
    if not rows:
        return ""
    return render_table(
        ["batching", "n", "mean", "p50", "max", "amortization"], rows,
        title="group commit")


def _render_tail_latency(registry) -> str:
    """p50/p95/p99 across every latency histogram in the registry —
    the tail-tolerance readout (hedged search legs live or die by p99).

    The search-latency row also shows how many hedged legs fired, how
    many won the race, and how many rescue calls replaced a dead leg:
    the knobs that shape that histogram's tail."""
    from repro.obs.export import _format_observation
    from repro.obs.metrics import Histogram

    counters = {name: instrument.value
                for name, instrument in registry.items("cluster.client")
                if instrument.kind == "counter"}
    rows = []
    for name, instrument in registry.items(""):
        if not isinstance(instrument, Histogram) or not instrument.count:
            continue
        if instrument.unit != "s":
            continue  # sizes/counts (e.g. update.batch_size) are not latency
        fmt = lambda v: _format_observation(v, instrument.unit)
        hedges = rescues = ""
        if name == "cluster.client.search_latency_s":
            won = counters.get("cluster.client.hedge_wins", 0)
            hedges = (f"{counters.get('cluster.client.hedges', 0):.0f} "
                      f"({won:.0f} won)")
            rescues = f"{counters.get('cluster.client.hedge_rescues', 0):.0f}"
        rows.append([name, int(instrument.count), fmt(instrument.p50),
                     fmt(instrument.p95), fmt(instrument.p99),
                     hedges, rescues])
    if not rows:
        return ""
    return render_table(
        ["histogram", "n", "p50", "p95", "p99", "hedges", "rescues"], rows,
        title="tail latency")


def _render_memory_tiers(service) -> str:
    """Per-node byte accounting across storage tiers: live resident
    replicas, the segment cache (segment bytes / state decoded from
    them) and the uncommitted index cache (RAM), the WAL (local disk),
    and frozen segments (cold object store)."""
    rows = []
    for row in service.memory_tiers():
        frozen = (f"{row['frozen']} ({row['frozen_acgs']} acgs)"
                  if row["frozen_acgs"] else "0")
        rows.append([row["node"], row["resident"], row["segment_cache_bytes"],
                     row["segment_cache_decoded"], row["index_cache"],
                     row["wal"], frozen])
    if not rows:
        return ""
    return render_table(
        ["node", "resident B", "seg bytes B", "seg decoded B", "idx cache B",
         "wal B", "frozen B"], rows, title="memory tiers")


def cmd_partition(args: argparse.Namespace) -> int:
    """``repro partition``: build an ACG and print its k-way partition."""
    if args.trace:
        with open(args.trace) as fh:
            graph = acg_from_trace(fh)
        source = args.trace
    else:
        from repro.workloads.apps import (
            GIT_SPEC, LINUX_SPEC, THRIFT_SPEC, CompileApplication, scaled_spec)

        name, _, scale_s = args.app.partition(":")
        specs = {"thrift": THRIFT_SPEC, "git": GIT_SPEC, "linux": LINUX_SPEC}
        if name not in specs:
            print(f"error: unknown app {name!r} (choose from {sorted(specs)})",
                  file=sys.stderr)
            return 2
        spec = specs[name]
        if scale_s:
            spec = scaled_spec(spec, float(scale_s))
        graph = CompileApplication(spec).build_acg()
        source = args.app
    components = graph.connected_components()
    print(f"ACG from {source}: {graph.vertex_count} files, "
          f"{graph.edge_count} edges, weight {graph.total_weight}, "
          f"{len(components)} component(s)")
    adjacency = graph.subgraph(components[0]).undirected_adjacency()
    parts = k_way_partition(adjacency, args.k)
    cut = sum(w for u, v, w in graph.edges()
              if _part_of(u, parts) != _part_of(v, parts))
    rows = [[i, len(p)] for i, p in enumerate(parts)]
    print(render_table(["partition", "files"], rows,
                       title=f"{args.k}-way partition of largest component"))
    total = graph.total_weight or 1
    print(f"cut weight: {cut} ({100 * cut / total:.2f}% of total)")
    return 0


def _part_of(vertex: int, parts: List[set]) -> Optional[int]:
    for i, part in enumerate(parts):
        if vertex in part:
            return i
    return None


def cmd_trace_gen(args: argparse.Namespace) -> int:
    """Generate a synthetic compile trace in the interchange format."""
    from repro.core.traceio import dump_trace
    from repro.workloads.apps import (
        GIT_SPEC, LINUX_SPEC, THRIFT_SPEC, CompileApplication, scaled_spec)

    name, _, scale_s = args.app.partition(":")
    specs = {"thrift": THRIFT_SPEC, "git": GIT_SPEC, "linux": LINUX_SPEC}
    if name not in specs:
        print(f"error: unknown app {name!r} (choose from {sorted(specs)})",
              file=sys.stderr)
        return 2
    spec = specs[name]
    if scale_s:
        spec = scaled_spec(spec, float(scale_s))
    app = CompileApplication(spec)
    with open(args.output, "w") as fh:
        count = dump_trace(app.trace(), fh)
    print(f"wrote {count} events ({spec.vertex_count} files) to {args.output}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Show which index access paths a query would use."""
    service, client = _build_service(args.nodes, args.files)
    try:
        plans = client.explain(args.query)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for acg_id, descriptions in sorted(plans.items()):
        for description in descriptions:
            print(f"ACG {acg_id}: {description}")
    return 0


def _ensure_benchmarks_importable() -> None:
    """Make the repo-root ``benchmarks`` package importable.

    The CLI is normally run with ``PYTHONPATH=src`` from the repo root;
    when it isn't, derive the repo root from this package's location.
    """
    try:
        import benchmarks  # noqa: F401
        return
    except ImportError:
        pass
    import repro

    root = pathlib.Path(repro.__file__).resolve().parents[2]
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    import benchmarks  # noqa: F401


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: run the unified benchmark harness / compare runs."""
    _ensure_benchmarks_importable()
    from benchmarks import harness

    if args.compare:
        old, new = (pathlib.Path(p) for p in args.compare)
        for path in (old, new):
            if not path.exists():
                print(f"error: {path} does not exist", file=sys.stderr)
                return 2
        report, failures = harness.compare(old, new, threshold=args.threshold)
        for line in report:
            print(line)
        if failures:
            print(f"FAIL: {len(failures)} regression(s) beyond "
                  f"{args.threshold:.0%}", file=sys.stderr)
            return 1
        print("OK: no regressions")
        return 0

    benches = harness.discover()
    if args.list:
        for key in sorted(benches):
            print(key)
        return 0
    if args.names:
        unknown = sorted(set(args.names) - set(benches))
        if unknown:
            print(f"error: unknown bench(es): {', '.join(unknown)} "
                  f"(see `repro bench --list`)", file=sys.stderr)
            return 2
        selected = {name: benches[name] for name in args.names}
    else:
        selected = benches

    tier = "smoke" if args.smoke else ("full" if args.full else "default")
    from benchmarks.harness import BenchConfig

    cfg = BenchConfig(tier=tier, instrument=not args.no_instrument)
    out_dir = pathlib.Path(args.out)
    failed = []
    for key in sorted(selected):
        print(f"[bench] {key} (tier={cfg.tier}) ...", flush=True)
        wall_start = time.perf_counter()
        try:
            artifact = harness.run_bench(key, selected[key], cfg)
        except Exception as exc:
            print(f"[bench] {key} FAILED: {exc}", file=sys.stderr)
            failed.append(key)
            continue
        path = harness.write_artifact(key, artifact, out_dir)
        n_lat = len(artifact["latency_s"])
        print(f"[bench] {key}: {n_lat} latencies, "
              f"{time.perf_counter() - wall_start:.1f}s wall -> {path}")
        if args.write_results:
            for written in harness.write_results_texts(
                    artifact, pathlib.Path(args.write_results)):
                print(f"[bench] {key}: wrote {written}")
    if failed:
        print(f"error: {len(failed)} bench(es) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    """``repro results``: print the regenerated paper tables."""
    directory = pathlib.Path(args.dir)
    if not directory.is_dir():
        print(f"error: no results directory at {directory} "
              "(run `pytest benchmarks/ --benchmark-only` first)",
              file=sys.stderr)
        return 2
    files = sorted(directory.glob("*.txt"))
    if not files:
        print("no result files found", file=sys.stderr)
        return 2
    for path in files:
        print(path.read_text().rstrip())
        print()
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: run a seeded fault program twice and audit it.

    Exit codes: 0 — deterministic and invariant-clean; 1 — invariant
    violations; 2 — the two runs of the same seed diverged
    (nondeterminism, itself a bug in the simulation).
    """
    from repro.chaos import ChaosRunner

    reports = []
    for attempt in range(2):
        runner = ChaosRunner(args.seed, steps=args.steps, nodes=args.nodes,
                             settle_every=args.settle_every, rf=args.rf,
                             master_faults=args.master_faults,
                             tiering=args.tiering)
        runner.run()
        reports.append(runner.report_json())
    report = json.loads(reports[0])
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        counters = report["counters"]
        print(f"chaos seed={report['seed']} steps={report['steps']} "
              f"nodes={report['nodes']} rf={report.get('rf', 1)}"
              + (" master-faults" if report.get("master_faults") else "")
              + (" tiering" if report.get("tiering", {}).get("enabled")
                 else ""))
        print(f"  virtual time      {report['virtual_time_s']:.1f}s")
        print(f"  files             {report['files_created']} created, "
              f"{report['files_deleted']} deleted, "
              f"{report['files_acked_live']} acked live")
        print(f"  injected          {report['injected']['dropped']} dropped, "
              f"{report['injected']['duplicated']} duplicated, "
              f"{report['injected']['delayed']} delayed, "
              f"{report['injected']['disk_errors']} disk errors")
        print(f"  rpc               {counters['cluster.rpc.retries']:.0f} retries, "
              f"{counters['cluster.rpc.timeouts']:.0f} timeouts, "
              f"{counters['cluster.rpc.failures']:.0f} gave up")
        print(f"  failovers         {counters['cluster.master.failovers']:.0f} "
              f"({counters['cluster.master.auto_failovers']:.0f} automatic), "
              f"{counters['cluster.master.rejoins']:.0f} rejoins")
        if report.get("rf", 1) > 1:
            print(f"  replication       "
                  f"{counters.get('cluster.master.promotions', 0):.0f} promotions, "
                  f"{counters.get('cluster.master.failover_deferred', 0):.0f} deferred, "
                  f"{counters.get('cluster.client.hedges', 0):.0f} hedges "
                  f"({counters.get('cluster.client.hedge_wins', 0):.0f} wins)")
        master = report.get("master", {})
        if report.get("master_faults") or master.get("promotions"):
            print(f"  master            term {master.get('term', 1)} "
                  f"(acting {master.get('acting', 'master')}), "
                  f"{master.get('promotions', 0):.0f} promotions, "
                  f"{master.get('deposed', 0):.0f} deposed, "
                  f"{master.get('restarts', 0):.0f} restarts, "
                  f"{master.get('fences', 0)} fences")
        tiers = report.get("tiering", {})
        if tiers.get("enabled"):
            objstore = tiers.get("object_store", {})
            print(f"  tiering           {tiers['freezes']} freezes, "
                  f"{tiers['thaws']} thaws, {tiers['hydrations']} hydrations, "
                  f"{tiers['fallbacks']} fallbacks, "
                  f"{tiers['repairs']} repairs "
                  f"({tiers['frozen_now']} frozen now)")
            print(f"  object store      {objstore.get('objects', 0)} objects / "
                  f"{objstore.get('bytes', 0)} B, "
                  f"{objstore.get('gets', 0)} gets, "
                  f"{objstore.get('puts', 0)} puts, "
                  f"{objstore.get('errors', 0)} errors "
                  f"(injected {report['injected'].get('object_errors', 0)} "
                  f"errors, {report['injected'].get('slow_hydrations', 0)} "
                  f"slow hydrations)")
        print(f"  degraded queries  {report['queries_degraded']}")
        print(f"  wal replay drops  {report['wal_replay_dropped']}")
        print(f"  violations        {len(report['violations'])}")
        for violation in report["violations"]:
            print(f"    - step {violation['step']}: {violation['kind']}: "
                  f"{violation['detail']}")
    if reports[0] != reports[1]:
        print("NONDETERMINISM: two runs of the same seed produced "
              "different reports", file=sys.stderr)
        return 2
    if report["violations"]:
        return 1
    if not args.json:
        print("deterministic: two runs produced bit-identical reports; "
              "0 invariant violations")
    return 0


def _observed_service(args: argparse.Namespace):
    """A deployment with a populated journal for ``status`` / ``events``.

    Default: a fresh demo cluster (placement events only — a healthy
    baseline).  With ``--chaos-seed`` the cluster is first driven through
    a seeded fault program, so the journal shows crashes, fences,
    failovers, and the health verdict transitions they caused.
    """
    if args.chaos_seed is not None:
        from repro.chaos import ChaosRunner

        runner = ChaosRunner(args.chaos_seed, steps=args.chaos_steps,
                             nodes=args.nodes, rf=args.rf,
                             master_faults=args.master_faults)
        runner.run()
        return runner.service
    service = PropellerService(num_index_nodes=args.nodes,
                               replication_factor=args.rf)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    paths = populate_namespace(service.vfs, args.files, seed=1)
    client.index_paths(paths, pid=1)
    client.flush_updates()
    service.commit_all()
    service.advance(2.0)
    return service


def cmd_status(args: argparse.Namespace) -> int:
    """``repro status``: the live health plane as one snapshot dashboard.

    Exit code mirrors the verdict: 0 healthy, 1 degraded, 2 critical —
    so scripts can gate on cluster health directly.
    """
    from repro.obs.export import render_journal, render_slo

    service = _observed_service(args)
    status = service.status(events_tail=args.events)
    verdict = status["health"]["verdict"]
    code = {"healthy": 0, "degraded": 1, "critical": 2}.get(verdict, 2)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return code
    health = status["health"]
    n_masters = len(getattr(service, "masters", [service.master]))
    print(f"cluster: {n_masters} master(s) + {args.nodes} index node(s), "
          f"rf={args.rf}; "
          f"{service.total_indexed_files()} files in "
          f"{service.acg_count()} ACGs; t={service.clock.now():.1f}s")
    causes = f"  ({', '.join(health['causes'])})" if health["causes"] else ""
    print(f"health: {verdict.upper()}{causes}")
    master = status.get("master", {})
    roles = " ".join(
        f"{name}={r['role']}{'' if r['up'] else '(down)'}"
        for name, r in sorted(master.get("roles", {}).items()))
    lag = master.get("standby_lag")
    print(f"master: term {master.get('term')}  {roles}  "
          f"standby-lag {'-' if lag is None else lag}  "
          f"promotions {master.get('promotions', 0):.0f}  "
          f"fences {master.get('fences', 0)}")
    print()
    rows = [[name, n["verdict"], ", ".join(n["causes"]) or "-"]
            for name, n in sorted(health["nodes"].items())]
    print(render_table(["node", "verdict", "causes"], rows, title="nodes"))
    print()
    tiers = _render_memory_tiers(service)
    if tiers:
        print(tiers)
        print()
    gauges = health["gauges"]
    print(render_table(["gauge", "value"],
                       [[name, gauges[name]] for name in sorted(gauges)],
                       title="health gauges"))
    print()
    print(render_slo(service.slos))
    print()
    print(render_journal(service.journal, tail=args.events))
    return code


def cmd_events(args: argparse.Namespace) -> int:
    """``repro events``: the cluster event journal, filtered."""
    from repro.obs.export import _event_context

    service = _observed_service(args)
    events = service.journal.events(type=args.type, since=args.since,
                                    acg_id=args.partition, node=args.node)
    if args.tail > 0:
        events = events[-args.tail:]
    if args.json:
        print(json.dumps({"digest": service.journal.digest(),
                          "events": [e.to_dict() for e in events]},
                         indent=2, sort_keys=True))
        return 0
    for event in events:
        d = event.to_dict()
        context = _event_context(d)
        detail = " ".join(f"{k}={v}"
                          for k, v in d.get("detail", {}).items())
        line = f"{d['seq']:>5d}  {d['t']:>9.3f}s  {d['type']:<24}"
        if context:
            line += f"  [{context}]"
        if detail:
            line += f"  {detail}"
        print(line)
    digest = service.journal.digest()
    print(f"# {len(events)} shown / {digest['retained']} retained / "
          f"{digest['total']} total ({digest['truncated']} evicted)")
    return 0


def _add_observed_cluster_args(parser: argparse.ArgumentParser) -> None:
    """Shared cluster-shape flags for ``status`` and ``events``."""
    parser.add_argument("--nodes", type=int, default=3,
                        help="index node count (default 3)")
    parser.add_argument("--files", type=int, default=500,
                        help="namespace size for the demo build "
                             "(default 500; ignored with --chaos-seed)")
    parser.add_argument("--rf", type=int, default=2,
                        help="partition replication factor (default 2)")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="drive the cluster through a seeded fault "
                             "program first (eventful journal)")
    parser.add_argument("--chaos-steps", type=int, default=30,
                        help="fault-program length for --chaos-seed "
                             "(default 30)")
    parser.add_argument("--master-faults", action="store_true",
                        help="with --chaos-seed: include control-plane "
                             "faults (standby Master deployed)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Propeller (ICDCS'14) reproduction — demo CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a live cluster demo")
    demo.add_argument("--nodes", type=int, default=4)
    demo.add_argument("--files", type=int, default=2000)
    demo.set_defaults(func=cmd_demo)

    query = sub.add_parser("query", help="search a generated namespace")
    query.add_argument("query")
    query.add_argument("--files", type=int, default=2000)
    query.add_argument("--nodes", type=int, default=4)
    query.add_argument("--limit", type=int, default=20)
    query.add_argument("--profile", action="store_true",
                       help="print the traced span-tree breakdown after "
                            "the results")
    query.set_defaults(func=cmd_query)

    profile = sub.add_parser(
        "profile", help="EXPLAIN ANALYZE a query against a demo cluster")
    profile.add_argument("query")
    profile.add_argument("--files", type=int, default=2000)
    profile.add_argument("--nodes", type=int, default=4)
    profile.add_argument("--json", action="store_true",
                         help="emit the profile as JSON instead of tables")
    profile.set_defaults(func=cmd_profile)

    partition = sub.add_parser("partition", help="partition an ACG")
    source = partition.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", help="trace file (see core.traceio)")
    source.add_argument("--app", help="thrift | git | linux[:scale]")
    partition.add_argument("--k", type=int, default=2)
    partition.set_defaults(func=cmd_partition)

    trace_gen = sub.add_parser("trace-gen",
                               help="emit a synthetic compile trace file")
    trace_gen.add_argument("--app", required=True,
                           help="thrift | git | linux[:scale]")
    trace_gen.add_argument("--output", "-o", required=True)
    trace_gen.set_defaults(func=cmd_trace_gen)

    explain = sub.add_parser("explain", help="show a query's access paths")
    explain.add_argument("query")
    explain.add_argument("--files", type=int, default=2000)
    explain.add_argument("--nodes", type=int, default=2)
    explain.set_defaults(func=cmd_explain)

    results = sub.add_parser("results", help="print regenerated tables")
    results.add_argument("--dir", default="benchmarks/results")
    results.set_defaults(func=cmd_results)

    bench = sub.add_parser(
        "bench", help="run the unified benchmark harness (BENCH_*.json)")
    bench.add_argument("names", nargs="*",
                       help="bench keys to run (default: all; see --list)")
    tier_group = bench.add_mutually_exclusive_group()
    tier_group.add_argument("--smoke", action="store_true",
                            help="smallest datasets (CI regression gate)")
    tier_group.add_argument("--full", action="store_true",
                            help="paper-scale datasets (REPRO_FULL analog)")
    bench.add_argument("--out", default=".",
                       help="directory for BENCH_*.json (default: repo root)")
    bench.add_argument("--list", action="store_true",
                       help="list discoverable benches and exit")
    bench.add_argument("--no-instrument", action="store_true",
                       help="disable timeline/freshness instrumentation")
    bench.add_argument("--write-results", metavar="DIR",
                       help="also regenerate fixed-width tables under DIR")
    bench.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                       help="compare two artifacts or directories; exits "
                            "non-zero on latency regressions")
    bench.add_argument("--threshold", type=float, default=0.10,
                       help="relative regression threshold for --compare "
                            "(default 0.10)")
    bench.set_defaults(func=cmd_bench)

    chaos = sub.add_parser(
        "chaos", help="run a deterministic fault-injection program and "
                      "audit crash-consistency invariants")
    chaos.add_argument("--seed", type=int, default=0,
                       help="schedule/injection seed (default 0)")
    chaos.add_argument("--steps", type=int, default=50,
                       help="fault-program length (default 50)")
    chaos.add_argument("--nodes", type=int, default=3,
                       help="index node count (default 3)")
    chaos.add_argument("--settle-every", type=int, default=10,
                       help="steps between invariant audits (default 10)")
    chaos.add_argument("--rf", type=int, default=1,
                       help="partition replication factor (default 1; "
                            "2/3 enable replica sets, promotion failover "
                            "and the replicas-converge invariant)")
    chaos.add_argument("--master-faults", action="store_true",
                       help="deploy a warm standby Master and mix "
                            "master_crash / master_isolation ops into the "
                            "schedule (control-plane failover chaos)")
    chaos.add_argument("--tiering", action="store_true",
                       help="enable tiered storage (cold partitions freeze "
                            "to the simulated object store) and mix "
                            "object_store_errors / slow_hydration ops into "
                            "the schedule")
    chaos.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    chaos.set_defaults(func=cmd_chaos)

    status = sub.add_parser(
        "status", help="snapshot health dashboard: verdicts, gauges, "
                       "SLO burn rates, recent events")
    _add_observed_cluster_args(status)
    status.add_argument("--events", type=int, default=15,
                        help="journal tail length to show (default 15)")
    status.add_argument("--json", action="store_true",
                        help="emit the full status snapshot as JSON")
    status.set_defaults(func=cmd_status)

    events = sub.add_parser(
        "events", help="dump the cluster event journal, filtered")
    _add_observed_cluster_args(events)
    events.add_argument("--type", default=None,
                        help="event type, exact or dotted prefix "
                             "(e.g. failover, repl.fence)")
    events.add_argument("--since", type=float, default=None,
                        help="only events at/after this virtual time (s)")
    events.add_argument("--partition", type=int, default=None,
                        help="only events for this partition (ACG id)")
    events.add_argument("--node", default=None,
                        help="only events from this node")
    events.add_argument("--tail", type=int, default=0,
                        help="only the most recent N matches (default all)")
    events.add_argument("--json", action="store_true",
                        help="emit digest + events as JSON")
    events.set_defaults(func=cmd_events)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
