"""Tests for the unified benchmark harness (benchmarks/harness.py) and
the ``repro bench`` CLI subcommand."""

import json
import pathlib

import pytest

from repro.cli import _ensure_benchmarks_importable, main

_ensure_benchmarks_importable()

from benchmarks import harness
from benchmarks.harness import BenchConfig, default_cfg


class TestBenchConfig:
    def test_tier_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(tier="huge")
        for tier in harness.TIERS:
            assert BenchConfig(tier=tier).tier == tier

    def test_scale_picks_per_tier(self):
        assert BenchConfig(tier="smoke").scale(1, 2, 3) == 1
        assert BenchConfig(tier="default").scale(1, 2, 3) == 2
        assert BenchConfig(tier="full").scale(1, 2, 3) == 3
        # full falls back to default when no full value is given.
        assert BenchConfig(tier="full").scale(1, 2) == 2

    def test_default_cfg_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert default_cfg().tier == "default"
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_cfg().tier == "full"


class TestDiscovery:
    def test_every_bench_module_is_discovered(self):
        benches = harness.discover()
        # Every bench_*.py in the suite exposes run(cfg).
        on_disk = {p.stem[len("bench_"):]
                   for p in harness.BENCH_DIR.glob("bench_*.py")}
        assert set(benches) == on_disk
        assert len(benches) >= 18

    def test_acceptance_benches_present(self):
        benches = harness.discover()
        for key in ("fig01_crawler_recall", "fig09_cluster_scaling",
                    "fig10_mixed_workload"):
            assert key in benches


class TestRunAndWrite:
    def test_smoke_run_produces_valid_artifact(self, tmp_path):
        benches = harness.discover()
        cfg = BenchConfig(tier="smoke")
        artifact = harness.run_bench("table1_app_overlap",
                                     benches["table1_app_overlap"], cfg)
        assert artifact["schema"] == harness.SCHEMA
        assert artifact["tier"] == "smoke"
        assert artifact["texts"]
        path = harness.write_artifact("table1_app_overlap", artifact, tmp_path)
        assert path.name == "BENCH_table1_app_overlap.json"
        assert json.loads(path.read_text()) == artifact

    def test_write_results_texts(self, tmp_path):
        artifact = {"texts": {"some_table": "a | b\n1 | 2"}}
        written = harness.write_results_texts(artifact, tmp_path)
        assert [p.name for p in written] == ["some_table.txt"]
        assert written[0].read_text() == "a | b\n1 | 2\n"


def artifact_with(latency):
    return {"schema": harness.SCHEMA, "latency_s": latency}


class TestCompare:
    def test_identical_artifacts_no_regressions(self):
        a = artifact_with({"q1": 0.5, "q2": 0.001})
        assert harness.compare_artifacts(a, a) == []

    def test_regression_beyond_threshold_flagged(self):
        old = artifact_with({"q1": 0.5, "q2": 0.001})
        new = artifact_with({"q1": 0.5, "q2": 0.002})   # 2x
        regressions = harness.compare_artifacts(old, new, threshold=0.10)
        assert [r[0] for r in regressions] == ["q2"]
        _, o, n, ratio = regressions[0]
        assert ratio == pytest.approx(2.0)

    def test_within_threshold_and_improvements_pass(self):
        old = artifact_with({"q1": 1.0, "q2": 1.0})
        new = artifact_with({"q1": 1.05, "q2": 0.2})
        assert harness.compare_artifacts(old, new, threshold=0.10) == []

    def test_only_shared_keys_compared(self):
        old = artifact_with({"gone": 1.0})
        new = artifact_with({"added": 99.0})
        assert harness.compare_artifacts(old, new) == []

    def test_directory_compare_and_failure_lines(self, tmp_path):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        harness.write_artifact("x", artifact_with({"q": 1.0}), old_dir)
        harness.write_artifact("x", artifact_with({"q": 3.0}), new_dir)
        report, failures = harness.compare(old_dir, new_dir)
        assert failures and "REGRESSION" in failures[0]
        # Identical directories: no failures.
        report, failures = harness.compare(old_dir, old_dir)
        assert failures == []

    def test_disjoint_directories_fail(self, tmp_path):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        harness.write_artifact("a", artifact_with({}), old_dir)
        harness.write_artifact("b", artifact_with({}), new_dir)
        _, failures = harness.compare(old_dir, new_dir)
        assert failures


class TestCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig09_cluster_scaling" in out

    def test_bench_unknown_name(self, capsys):
        assert main(["bench", "no_such_bench"]) == 2

    def test_bench_smoke_single(self, tmp_path, capsys):
        rc = main(["bench", "table1_app_overlap", "--smoke",
                   "--out", str(tmp_path)])
        assert rc == 0
        artifact = json.loads(
            (tmp_path / "BENCH_table1_app_overlap.json").read_text())
        assert artifact["tier"] == "smoke"

    def test_bench_compare_exit_codes(self, tmp_path, capsys):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        harness.write_artifact("x", artifact_with({"q": 1.0}), old_dir)
        harness.write_artifact("x", artifact_with({"q": 1.0}), new_dir)
        assert main(["bench", "--compare", str(old_dir), str(new_dir)]) == 0
        harness.write_artifact("x", artifact_with({"q": 2.5}), new_dir)
        assert main(["bench", "--compare", str(old_dir), str(new_dir)]) == 1
        assert main(["bench", "--compare", str(old_dir),
                     str(tmp_path / "missing")]) == 2
