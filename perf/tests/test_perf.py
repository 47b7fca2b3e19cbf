"""Tests of the benchmark itself (not part of tier-1 ``testpaths``).

    python -m pytest perf/tests -q

Every workload runs once untraced and once traced at ``--quick`` size;
the tests below share those eight runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perf import compare, run  # noqa: E402
from perf.harness import (Meter, StepResult, knee_rate,  # noqa: E402
                          run_open_loop)
from perf.spec import (LAYERS, WORKLOADS, load_benchmark,  # noqa: E402
                       per_layer_units)
from perf.workloads import MixedRw  # noqa: E402

BENCHMARK = load_benchmark()
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
UPDATE_LAYERS = ("fs.vfs", "fs.interceptor", "core.acg", "cluster.client",
                 "cluster.wal", "cluster.cache", "indexstructures.btree",
                 "indexstructures.hashindex", "indexstructures.postings")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """{(workload, trace): (exit code, result line, stdout lines)} plus
    ``"out"``: the JSONL file every run appended its record to."""
    out = str(tmp_path_factory.mktemp("perf") / "runs.jsonl")
    done = {"out": out}
    for workload in WORKLOADS:
        for trace, seed in ((0, 1), (1, 2)):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = run.main(["--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", str(trace),
                                 "--quick", "--out", out])
            lines = buffer.getvalue().strip().splitlines()
            done[(workload, trace)] = (code, json.loads(lines[-1]), lines)
    return done


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perf"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME_RE.match(metric["name"]), metric["name"]
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    # The per-layer list is the one the code produces.
    assert ({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
            == per_layer_units())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(results, workload):
    code, line, _ = results[(workload, 0)]
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(results, workload):
    code, line, lines = results[(workload, 1)]
    assert code == 0 and line["correct"] is True
    values = {n: m["value"] for n, m in line["metrics"].items()}
    assert ({n: m["unit"] for n, m in line["metrics"].items()}
            == per_layer_units())
    # Every metric is printed by name with its unit.
    printed = {l.split()[0] for l in lines if l and not l.startswith(("#", "{"))}
    assert set(values) <= printed
    # Instrumentation charges zero simulated time.
    assert values["obs.sim_identical"] == 1.0
    assert values["obs.tracing_host_overhead_ratio"] > 1.0
    # Layer self-times account for the phase and never exceed it.
    assert 0.8 <= values["bench.attributed_share"] <= 1.0
    assert values["bench.failed_ops_share"] == 0.0


def test_each_workload_does_what_it_was_chosen_for(results):
    layer = {w: {n: m["value"]
                 for n, m in results[(w, 1)][1]["metrics"].items()}
             for w in WORKLOADS}

    def share(values, layers):
        total = sum(values[f"{name}.host_self_s"] for name in LAYERS)
        return sum(values[f"{name}.host_self_s"] for name in layers) / total

    query = [name for name in LAYERS if name.startswith("query.")]
    assert share(layer["ingest-apps"], UPDATE_LAYERS) >= 0.6
    assert share(layer["ingest-apps"], query) < 0.1
    assert layer["search-fanout"]["cluster.wal.calls"] == 0
    assert layer["search-fanout"]["fs.vfs.calls"] == 0
    for workload in WORKLOADS:
        replicated = layer[workload]["replication.calls"] > 0
        assert replicated == (workload == "mixed-rw")
        tiered = layer[workload]["cluster.segments.calls"] > 0
        assert tiered == (workload == "cold-tier")
    cold = layer["cold-tier"]
    sim = {name: cold[f"{name}.sim_self_s"] for name in LAYERS
           if name != "sim.events"}  # idle advance() time is not work
    tier = sim["cluster.segments"] + sim["sim.objectstore"]
    assert tier == max(tier, *(v for n, v in sim.items()
                               if n not in ("cluster.segments",
                                            "sim.objectstore")))
    assert 0.0 < cold["cluster.segments.cache_hit_rate"] < 0.9


def test_knee_is_interpolated_between_the_last_pass_and_first_fail():
    def step(rate, p99_s, growth_s=0.0):
        result = StepResult(rate=rate, ops=1000, search_p99_s=p99_s,
                            update_p99_s=p99_s / 2, lateness_first_s=0.0,
                            lateness_last_s=growth_s, passed=False)
        result.passed = (result.slo_ratio <= 1.0
                         and result.lateness_growth_s <= 0.010)
        return result

    ladder = [step(1000, 0.002), step(2000, 0.005), step(4000, 0.080, 0.07),
              step(8000, 0.300, 0.29)]
    highest, knee = knee_rate(ladder)
    assert highest == 2000
    assert 2000 < knee < 4000
    # A faster system moves the knee without crossing a ladder step.
    ladder[1] = step(2000, 0.003)
    assert knee < knee_rate(ladder)[1] < 4000
    assert knee_rate([step(1000, 0.5)]) == (0.0, 0.0)
    assert knee_rate(ladder[:2]) == (2000, 2000)


def test_wrappers_are_fully_removed_after_a_traced_pass(results):
    import repro.cluster.client as client
    import repro.query.parser as parser
    from repro.cluster.index_node import IndexNode
    from repro.indexstructures.postings import PostingList
    from repro.sim.clock import SimClock
    assert client.parse_query is parser.parse_query
    for fn in (client.PropellerClient.index_path, IndexNode.handle_search,
               SimClock.parallel, SimClock.race, parser.parse_query,
               PostingList.intersection, PostingList.from_iterable):
        assert not hasattr(fn, "__wrapped__"), fn
        assert fn.__module__.startswith("repro."), fn


def test_open_loop_driver_reports_lateness_and_failure():
    wl = MixedRw(seed=3, quick=True)
    dep = wl.setup()
    meter = Meter()
    slow = run_open_loop(dep, meter, 1.0,
                         lambda: wl.next_op(dep, meter), random.Random(1),
                         lambda n: n >= 40)
    assert slow.lateness_last_s == 0.0 and slow.passed
    fast = run_open_loop(dep, meter, 1e6,
                         lambda: wl.next_op(dep, meter), random.Random(1),
                         lambda n: n >= 400)
    assert not fast.passed and fast.lateness_last_s > fast.lateness_first_s


def test_compare_flags_regressions_and_failures(results, tmp_path, capsys):
    out = results["out"]
    assert compare.main([out, out]) == 0
    table = capsys.readouterr().out
    for workload in WORKLOADS:
        assert workload in table
    assert "regressed" not in table
    worse = tmp_path / "worse.jsonl"
    with open(out, encoding="utf-8") as src, open(worse, "w") as dst:
        for text in src:
            record = json.loads(text)
            if record["trace"] == 0:
                record["metrics"]["search_sim_tail_s"]["value"] *= 2.0
                record["failed"] += 1
            dst.write(json.dumps(record) + "\n")
    assert compare.main([out, str(worse)]) == 1
    table = capsys.readouterr().out
    assert table.count("regressed") >= 2 * len(WORKLOADS)


def test_bare_checkout_exits_non_zero(tmp_path):
    """With only BENCHMARK.json and perf/ present there is no program to
    measure: the command must fail without printing a result."""
    import shutil
    import subprocess
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perf"), tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "search-fanout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
