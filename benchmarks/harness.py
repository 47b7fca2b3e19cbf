"""Unified benchmark runner: every figure/table/ablation as one artifact.

Each ``bench_*.py`` module exposes ``run(cfg) -> dict`` returning:

* ``name`` — the bench stem (``fig09_cluster_scaling``);
* ``texts`` — ``{result_name: fixed-width text}``, exactly what the
  pytest wrapper records under ``benchmarks/results/`` (one code path
  for text and JSON);
* ``latency_s`` — scalar *simulated* timings keyed by a stable name.
  These are deterministic (the cost model is seeded), so two runs of the
  same code are bit-identical and :func:`compare` can flag regressions
  with no noise floor;
* ``series`` — ``{series_name: [[t, value], ...]}`` timeline samples;
* ``staleness`` — a freshness summary (see ``repro.obs.freshness``);
* ``metrics`` — registry counters worth keeping;
* ``params`` / ``extra`` — the run's configuration and any other
  figures-of-merit;
* ``slo`` / ``journal`` — optional observability sections; when absent
  the harness fills them from the last Propeller deployment the bench
  built (SLO summary + event-journal digest, see ``repro.obs``).

The harness wraps that in an envelope (schema, tier) and writes
``BENCH_<key>.json`` — ``key`` is the stem minus ``bench_`` — at the
repo root (or ``--out DIR``).  ``compare()`` diffs two artifacts (or
two directories of them) and fails on latency regressions beyond a
threshold.  Host time is not recorded here: ``perf/`` judges it.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

SCHEMA = "propeller-bench/1"
BENCH_DIR = pathlib.Path(__file__).parent
ARTIFACT_PREFIX = "BENCH_"
DEFAULT_THRESHOLD = 0.10

TIERS = ("smoke", "default", "full")


@dataclass
class BenchConfig:
    """How one bench invocation should scale and instrument itself.

    ``tier`` picks the dataset sizes: ``smoke`` finishes in seconds (CI
    regression gate), ``default`` matches the pytest suite, ``full`` is
    paper scale (``REPRO_FULL=1``).  ``instrument`` enables the timeline
    recorder and freshness tracking — guaranteed not to change simulated
    numbers (both charge zero virtual time).
    """

    tier: str = "default"
    instrument: bool = True

    def __post_init__(self) -> None:
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}; expected one of {TIERS}")

    @property
    def smoke(self) -> bool:
        return self.tier == "smoke"

    @property
    def full(self) -> bool:
        return self.tier == "full"

    def scale(self, smoke: Any, default: Any, full: Any = None) -> Any:
        """Pick a per-tier value (``full`` falls back to ``default``)."""
        if self.tier == "smoke":
            return smoke
        if self.tier == "full":
            return default if full is None else full
        return default


def default_cfg(instrument: bool = True) -> BenchConfig:
    """The tier the pytest suite runs at (``REPRO_FULL=1`` → full)."""
    tier = "full" if os.environ.get("REPRO_FULL", "") == "1" else "default"
    return BenchConfig(tier=tier, instrument=instrument)


# -- discovery ---------------------------------------------------------------

def discover() -> Dict[str, Any]:
    """Map bench key → module for every ``bench_*.py`` exposing ``run``."""
    benches: Dict[str, Any] = {}
    for path in sorted(BENCH_DIR.glob("bench_*.py")):
        module = importlib.import_module(f"benchmarks.{path.stem}")
        if hasattr(module, "run"):
            benches[path.stem[len("bench_"):]] = module
    return benches


# -- running -----------------------------------------------------------------

def run_bench(name: str, module: Any, cfg: BenchConfig) -> Dict[str, Any]:
    """Run one bench and wrap its result in the artifact envelope.

    Every artifact carries ``slo`` / ``journal`` sections: a bench can
    return them explicitly, otherwise the harness embeds the summary of
    the last Propeller deployment the bench built (empty sections for
    baseline-only benches).  ``compare_artifacts`` ignores both, so the
    sections never turn an observability change into a regression.
    """
    from benchmarks import common

    common.reset_observed()
    result = module.run(cfg)
    obs = common.obs_sections()
    return {
        "schema": SCHEMA,
        "name": result.get("name", f"bench_{name}"),
        "tier": cfg.tier,
        "instrumented": cfg.instrument,
        "params": result.get("params", {}),
        "latency_s": result.get("latency_s", {}),
        "series": result.get("series", {}),
        "staleness": result.get("staleness", {}),
        "metrics": result.get("metrics", {}),
        "extra": result.get("extra", {}),
        "slo": result.get("slo", obs["slo"]),
        "journal": result.get("journal", obs["journal"]),
        "texts": result.get("texts", {}),
    }


def write_artifact(key: str, artifact: Dict[str, Any],
                   out_dir: pathlib.Path) -> pathlib.Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{ARTIFACT_PREFIX}{key}.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def write_results_texts(artifact: Dict[str, Any],
                        results_dir: pathlib.Path) -> List[pathlib.Path]:
    """Regenerate ``benchmarks/results/*.txt`` from an artifact's texts."""
    results_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for result_name, text in sorted(artifact.get("texts", {}).items()):
        path = results_dir / f"{result_name}.txt"
        path.write_text(text + "\n")
        written.append(path)
    return written


# -- comparison --------------------------------------------------------------

def _load_artifact(path: pathlib.Path) -> Dict[str, Any]:
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or "latency_s" not in data:
        raise ValueError(f"{path} is not a {SCHEMA} artifact")
    return data


def compare_artifacts(old: Dict[str, Any], new: Dict[str, Any],
                      threshold: float = DEFAULT_THRESHOLD
                      ) -> List[Tuple[str, float, float, float]]:
    """Regressions between two artifacts' shared latency keys.

    Returns ``(key, old_value, new_value, ratio)`` for every shared
    ``latency_s`` entry where new exceeds old by more than ``threshold``
    (relative).  Simulated latencies are deterministic, so any excess is
    a real code-path change, not noise.

    Artifacts carrying ``extra["p99_over_p50"]`` (tail-latency ratios,
    see ``bench_replication_tail``) are guarded the same way: a tail
    ratio growing past the threshold is a regression even when every
    scalar latency stayed flat — exactly the failure mode hedged reads
    exist to prevent.
    """
    regressions = []
    old_lat = old.get("latency_s", {})
    new_lat = new.get("latency_s", {})
    for key in sorted(set(old_lat) & set(new_lat)):
        o, n = float(old_lat[key]), float(new_lat[key])
        if o <= 0:
            continue
        ratio = n / o
        if ratio > 1.0 + threshold:
            regressions.append((key, o, n, ratio))
    old_tail = old.get("extra", {}).get("p99_over_p50", {})
    new_tail = new.get("extra", {}).get("p99_over_p50", {})
    for key in sorted(set(old_tail) & set(new_tail)):
        o, n = float(old_tail[key]), float(new_tail[key])
        if o <= 0:
            continue
        ratio = n / o
        if ratio > 1.0 + threshold:
            regressions.append((f"p99_over_p50:{key}", o, n, ratio))
    return regressions


def _artifact_files(path: pathlib.Path) -> Dict[str, pathlib.Path]:
    if path.is_dir():
        return {p.name: p for p in sorted(path.glob(f"{ARTIFACT_PREFIX}*.json"))}
    return {path.name: path}


def compare(old_path: pathlib.Path, new_path: pathlib.Path,
            threshold: float = DEFAULT_THRESHOLD
            ) -> Tuple[List[str], List[str]]:
    """Compare artifacts (file vs file, or directory vs directory).

    Returns ``(report_lines, regression_lines)`` — non-empty
    ``regression_lines`` means the comparison failed.
    """
    old_files = _artifact_files(old_path)
    new_files = _artifact_files(new_path)
    shared = sorted(set(old_files) & set(new_files))
    report: List[str] = []
    failures: List[str] = []
    if not shared:
        failures.append(f"no artifacts in common between {old_path} and {new_path}")
        return report, failures
    for name in shared:
        old_art = _load_artifact(old_files[name])
        new_art = _load_artifact(new_files[name])
        regressions = compare_artifacts(old_art, new_art, threshold)
        shared_keys = set(old_art.get("latency_s", {})) & set(new_art.get("latency_s", {}))
        report.append(f"{name}: {len(shared_keys)} latencies compared, "
                      f"{len(regressions)} regression(s)")
        for key, o, n, ratio in regressions:
            line = (f"  REGRESSION {name}:{key} {o:.6g}s -> {n:.6g}s "
                    f"({ratio:.2f}x, threshold {1 + threshold:.2f}x)")
            report.append(line)
            failures.append(line.strip())
    only_old = sorted(set(old_files) - set(new_files))
    if only_old:
        report.append(f"missing from new: {', '.join(only_old)}")
    only_new = sorted(set(new_files) - set(old_files))
    if only_new:
        report.append(f"new artifacts (no baseline): {', '.join(only_new)}")
    return report, failures
