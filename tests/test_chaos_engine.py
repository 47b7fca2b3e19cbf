"""The chaos subsystem: seeded fault injection, schedule generation,
the invariant checker's ledger, and the runner's determinism contract."""

import random

import pytest

from repro.chaos import (AckLedger, ChaosRunner, ExcuseWindow, FaultInjector,
                         build_schedule, run_chaos)
from repro.obs.metrics import MetricsRegistry


# -- FaultInjector ----------------------------------------------------------------


class TestFaultInjector:
    def test_quiescent_by_default(self):
        faults = FaultInjector(seed=1)
        assert faults.quiescent
        assert faults.message_fate("in1", "search") == "ok"
        assert faults.extra_latency_s("in1") == 0.0
        assert not faults.disk_read_fails()

    def test_same_seed_same_fates(self):
        a, b = FaultInjector(seed=9), FaultInjector(seed=9)
        for f in (a, b):
            f.set_message_faults(drop=0.3, duplicate=0.2, delay=0.1)
        fates_a = [a.message_fate("in1", "m") for _ in range(200)]
        fates_b = [b.message_fate("in1", "m") for _ in range(200)]
        assert fates_a == fates_b
        assert "drop" in fates_a and "duplicate" in fates_a

    def test_immune_target_never_faulted_but_consumes_draw(self):
        """Immunity must not desynchronize the RNG stream: an immune
        message burns the same single draw a faultable one would."""
        a = FaultInjector(seed=9, immune_targets={"master"})
        b = FaultInjector(seed=9)
        a.set_message_faults(drop=1.0)
        b.set_message_faults(drop=1.0)
        assert a.message_fate("master", "route") == "ok"
        assert b.message_fate("master", "route") == "drop"
        # Streams stay aligned after the immune draw.
        a.set_message_faults(drop=0.5)
        b.set_message_faults(drop=0.5)
        assert ([a.message_fate("in1", "m") for _ in range(50)]
                == [b.message_fate("in1", "m") for _ in range(50)])

    def test_slow_node_and_clear(self):
        faults = FaultInjector(seed=0)
        faults.slow_node("in2", 0.25)
        assert faults.extra_latency_s("in2") == 0.25
        assert faults.extra_latency_s("in1") == 0.0
        faults.clear_message_faults()
        assert faults.extra_latency_s("in2") == 0.0
        assert faults.quiescent

    def test_disk_errors_and_counters(self):
        reg = MetricsRegistry()
        faults = FaultInjector(seed=3, registry=reg)
        faults.set_disk_error_rate(1.0)
        assert faults.disk_read_fails()
        assert faults.disk_errors == 1
        assert reg.value("chaos.disk_errors") == 1
        faults.set_disk_error_rate(0.0)
        assert not faults.disk_read_fails()

    def test_summary_is_plain_data(self):
        faults = FaultInjector(seed=0)
        faults.set_message_faults(drop=1.0)
        faults.message_fate("in1", "m")
        summary = faults.summary()
        assert summary["dropped"] == 1


# -- schedules --------------------------------------------------------------------


class TestSchedule:
    def test_same_seed_same_program(self):
        a = build_schedule(seed=4, steps=40, nodes=3)
        b = build_schedule(seed=4, steps=40, nodes=3)
        assert a == b

    def test_different_seed_differs(self):
        assert (build_schedule(seed=4, steps=40, nodes=3)
                != build_schedule(seed=5, steps=40, nodes=3))

    def test_opens_with_data(self):
        program = build_schedule(seed=0, steps=10, nodes=2)
        assert len(program) == 10
        assert program[0].op == "create_files"
        assert program[0].params["count"] >= 8

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_schedule(seed=0, steps=0, nodes=2)
        with pytest.raises(ValueError):
            build_schedule(seed=0, steps=5, nodes=0)

    def test_node_ordinals_in_range(self):
        for step in build_schedule(seed=1, steps=200, nodes=3):
            if "node" in step.params:
                assert 0 <= step.params["node"] < 3


# -- the ack ledger's excuse rules ----------------------------------------------


class TestAckLedger:
    def test_excused_only_inside_window_and_after_checkpoint(self):
        ledger = AckLedger()
        ledger.created(1, "/a", 0.0)
        ledger.acked(1, 10.0, partition=5)
        assert not ledger.excused_missing(ledger.files[1])
        # Failover of partition 5 whose victim checkpointed at t=4:
        # an ack at t=10 postdates the checkpoint and is excused.
        ledger.add_window({5}, after_t=4.0, reason="failover_of_in1")
        assert ledger.excused_missing(ledger.files[1])

    def test_ack_before_checkpoint_not_excused(self):
        """An ack the victim's checkpoint already covered is NOT excused:
        the adopter restored that checkpoint, so the file must be live."""
        ledger = AckLedger()
        ledger.created(1, "/a", 0.0)
        ledger.acked(1, 2.0, partition=5)
        ledger.add_window({5}, after_t=4.0, reason="failover_of_in1")
        assert not ledger.excused_missing(ledger.files[1])

    def test_wal_tail_excuse(self):
        ledger = AckLedger()
        ledger.created(7, "/b", 0.0)
        ledger.acked(7, 1.0, partition=2)
        ledger.excuse_wal_tail([7])
        assert ledger.excused_missing(ledger.files[7])


# -- the runner's determinism contract --------------------------------------------


class TestChaosRunner:
    def test_same_seed_bit_identical_reports(self):
        a = ChaosRunner(5, steps=25, nodes=3)
        b = ChaosRunner(5, steps=25, nodes=3)
        ra, rb = a.run(), b.run()
        assert a.report_json() == b.report_json()
        assert ra["violations"] == []
        assert rb["violations"] == []

    def test_different_seeds_diverge(self):
        a = ChaosRunner(5, steps=25, nodes=3)
        b = ChaosRunner(6, steps=25, nodes=3)
        a.run(), b.run()
        assert a.report_json() != b.report_json()

    def test_fixed_seeds_hold_invariants(self):
        for seed in (0, 1, 2, 3):
            report = run_chaos(seed=seed, steps=30, nodes=3)
            assert report["violations"] == [], f"seed {seed}"

    def test_report_shape(self):
        report = run_chaos(seed=7, steps=20, nodes=3)
        for key in ("seed", "steps", "nodes", "virtual_time_s",
                    "files_created", "counters", "violations",
                    "injected", "live_nodes"):
            assert key in report
        assert report["seed"] == 7
        assert report["files_created"] > 0

    def test_exercises_faults(self):
        """A long-enough program actually injects faults — the engine is
        not vacuously green."""
        report = run_chaos(seed=3, steps=50, nodes=3)
        injected = report["injected"]
        assert injected["dropped"] + injected["delayed"] + injected["duplicated"] > 0
        assert report["counters"].get("cluster.master.failovers", 0) >= 1


# -- CLI --------------------------------------------------------------------------


class TestChaosCli:
    def test_chaos_smoke_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--seed", "0", "--steps", "15"]) == 0
        out = capsys.readouterr().out
        assert "deterministic" in out
        assert "0 invariant violations" in out

    def test_chaos_json_report(self, capsys):
        import json

        from repro.cli import main

        assert main(["chaos", "--seed", "1", "--steps", "12", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 1
        assert report["violations"] == []
