"""Compare two sets of benchmark runs.

    python3 perf/compare.py OLD.jsonl NEW.jsonl

Each file holds one JSON record per line, as ``perf/run.py --out FILE``
appends them (``--trace 0`` records are compared; others are skipped).
One row per workload × end-to-end metric: both medians with their
quartiles, the ratio NEW/OLD with its base, the bound from
``BENCHMARK.json`` and a verdict:

* ``regressed``  — NEW's median is worse than OLD's by more than the bound;
* ``improved``   — NEW's median is better by more than OLD's own spread
  (inter-quartile distance ÷ median);
* ``unresolved`` — neither, and the run-to-run spread of either side is
  wider than the bound, so "unchanged" cannot be claimed;
* ``unchanged``  — otherwise.

Exits 1 on any regression or any rise in the share of failed ops.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from perf.spec import load_benchmark  # noqa: E402

Runs = Dict[str, List[Dict[str, Any]]]


def load_runs(path: str) -> Runs:
    """Untraced run records of one file, grouped by workload."""
    runs: Runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace", 0) == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(records: List[Dict[str, Any]], name: str,
            stats: Tuple[float, float, float]) -> float:
    """Run-to-run spread of one metric; a single run of a host metric
    falls back on that run's own ``bench.host_spread``."""
    q1, med, q3 = stats
    if len(records) >= 2:
        return (q3 - q1) / med if med else 0.0
    if name.startswith(("host_", "setup_")):
        return records[0].get("diagnostics", {}).get("bench.host_spread", 0.0)
    return 0.0


def verdict(old: Tuple[float, float, float], new: Tuple[float, float, float],
            better: str, bound: float, old_spread: float,
            new_spread: float) -> Tuple[str, float]:
    """(verdict, share by which NEW is worse than OLD; negative = better)."""
    base = old[1]
    change = (new[1] - base) / base if base else 0.0
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed", worse
    if worse < 0 and -worse > old_spread:
        return "improved", worse
    if max(old_spread, new_spread) > bound:
        return "unresolved", worse
    return "unchanged", worse


def _failed_share(records: List[Dict[str, Any]]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def compare(old: Runs, new: Runs,
            benchmark: Dict[str, Any]) -> Tuple[List[List[str]], bool]:
    """(table rows, whether anything regressed)."""
    rows: List[List[str]] = []
    bad = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in old or workload not in new:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            o = quartiles([r["metrics"][name]["value"] for r in old[workload]])
            n = quartiles([r["metrics"][name]["value"] for r in new[workload]])
            o_spread = _spread(old[workload], name, o)
            n_spread = _spread(new[workload], name, n)
            word, worse = verdict(o, n, metric["better"], metric["bound"],
                                  o_spread, n_spread)
            bad = bad or word == "regressed"
            rows.append([
                workload, name, metric["unit"],
                f"{o[1]:.6g} [{o[0]:.6g}, {o[2]:.6g}]",
                f"{n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]",
                f"{n[1] / o[1]:.4f} of {o[1]:.6g}" if o[1] else "n/a",
                f"{metric['bound']:.2f}", word])
        o_fail, n_fail = _failed_share(old[workload]), _failed_share(new[workload])
        rose = n_fail > o_fail
        bad = bad or rose
        rows.append([workload, "failed_ops_share", "ratio", f"{o_fail:.6g}",
                     f"{n_fail:.6g}", "-", "0", "regressed" if rose
                     else "unchanged"])
    return rows, bad


def render(rows: List[List[str]]) -> str:
    header = ["workload", "metric", "unit", "old median [q1, q3]",
              "new median [q1, q3]", "ratio (base)", "bound", "verdict"]
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths))
             for row in [header] + rows]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, bad = compare(load_runs(args[0]), load_runs(args[1]),
                        load_benchmark())
    print(render(rows))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
