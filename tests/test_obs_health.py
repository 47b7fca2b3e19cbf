"""The health plane: event journal, SLO burn-rate alerting, health
verdicts, ``repro status`` / ``repro events`` — and the end-to-end
acceptance story: a fault produces a causally-ordered, span-correlated
journal and a degraded→healthy verdict arc."""

import json

import pytest

from repro.cli import main
from repro.cluster import PropellerService
from repro.errors import StaleReplEpoch
from repro.indexstructures import IndexKind
from repro.obs.health import HealthMonitor, NULL_HEALTH
from repro.obs.journal import NULL_JOURNAL, EventJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import NULL_SLOS, SloSpec, SloTracker, default_specs
from repro.obs.tracing import Tracer
from repro.sim.clock import SimClock
from repro.sim.machine import Machine


# -- journal ------------------------------------------------------------------

class TestEventJournal:
    def test_emit_stamps_seq_time_and_context(self):
        clock = SimClock()
        journal = EventJournal(clock)
        clock.charge(1.5)
        event = journal.emit("repl.fence", node="in2", acg_id=7,
                             repl_epoch=3, route_epoch=9, rpc="x")
        assert (event.seq, event.t) == (1, 1.5)
        assert event.node == "in2" and event.acg_id == 7
        assert event.detail == {"rpc": "x"}
        d = event.to_dict()
        assert d["repl_epoch"] == 3 and d["route_epoch"] == 9
        assert "payload" not in d and "span_id" not in d

    def test_type_filter_matches_exact_and_dotted_prefix(self):
        journal = EventJournal(SimClock())
        journal.emit("repl.fence")
        journal.emit("repl.epoch_bump")
        journal.emit("replication")  # not under the "repl." prefix
        journal.emit("node.crash")
        assert len(journal.events(type="repl")) == 2
        assert len(journal.events(type="repl.fence")) == 1
        assert journal.count("repl") == 2
        assert journal.count("node.crash") == 1

    def test_since_partition_and_node_filters(self):
        clock = SimClock()
        journal = EventJournal(clock)
        journal.emit("a", node="in1", acg_id=1)
        clock.charge(10.0)
        journal.emit("b", node="in2", acg_id=2)
        assert [e.type for e in journal.events(since=5.0)] == ["b"]
        assert [e.type for e in journal.events(acg_id=1)] == ["a"]
        assert [e.type for e in journal.events(node="in2")] == ["b"]

    def test_bounded_with_cumulative_counts_surviving_eviction(self):
        journal = EventJournal(SimClock(), maxlen=4)
        for _ in range(10):
            journal.emit("tick")
        assert len(journal) == 4
        digest = journal.digest()
        assert digest["total"] == 10 and digest["retained"] == 4
        assert digest["truncated"] == 6
        assert digest["by_type"] == {"tick": 10}
        assert journal.count("tick") == 10

    def test_events_carry_the_active_span_id(self):
        clock = SimClock()
        tracer = Tracer(clock)
        journal = EventJournal(clock, tracer=tracer)
        outside = journal.emit("outside")
        with tracer.span("failover"):
            inner_a = journal.emit("repl.epoch_bump")
            inner_b = journal.emit("route.epoch_bump")
        assert outside.span_id is None
        assert inner_a.span_id is not None
        assert inner_a.span_id == inner_b.span_id

    def test_payload_views_return_live_objects(self):
        journal = EventJournal(SimClock())
        record = {"outcome": "pending"}
        journal.emit("migration.start", payload=record)
        journal.emit("migration.done")  # no payload
        views = journal.payloads("migration")
        assert views == [record]
        record["outcome"] = "done"  # in-place mutation stays visible
        assert journal.payloads("migration")[0]["outcome"] == "done"

    def test_null_journal_is_inert(self):
        assert NULL_JOURNAL.emit("x", node="n") is None
        assert len(NULL_JOURNAL) == 0
        assert NULL_JOURNAL.events() == []
        assert NULL_JOURNAL.digest()["total"] == 0
        assert not NULL_JOURNAL.enabled


# -- SLO tracker --------------------------------------------------------------

def make_tracker(spec, clock=None, registry=None, journal=None):
    clock = clock or SimClock()
    registry = registry or MetricsRegistry()
    journal = journal if journal is not None else EventJournal(clock)
    tracker = SloTracker(clock, registry, journal=journal, specs=(spec,))
    return clock, registry, journal, tracker


class TestSloTracker:
    def test_histogram_breach_and_recover_emit_journal_events(self):
        spec = SloSpec("lat", "svc.latency_s", target=1.0, budget=0.01,
                       fast_window_s=10.0, slow_window_s=60.0)
        clock, registry, journal, tracker = make_tracker(spec)
        hist = registry.histogram("svc.latency_s")
        tracker.sample()  # baseline snapshot
        for _ in range(20):
            hist.observe(5.0)  # every event blows the 1s target
        clock.charge(1.0)
        tracker.sample()
        assert tracker.breached() == ["lat"]
        assert tracker.breach_count() == 1
        assert registry.counter("slo.lat.breaches").value == 1
        breach = journal.events(type="slo.breach")[-1]
        assert breach.detail["slo"] == "lat"
        assert breach.detail["fast_burn_rate"] >= spec.fast_burn
        # Clean fast window -> recover (no new bad events past it).
        clock.charge(spec.fast_window_s + 1.0)
        tracker.sample()
        clock.charge(1.0)
        tracker.sample()
        assert tracker.breached() == []
        assert journal.count("slo.recover") == 1
        # Breach transitions stay counted after recovery.
        assert tracker.breach_count() == 1

    def test_gauge_backed_spec_counts_samples(self):
        spec = SloSpec("down", "svc.nodes_down", target=0.0, budget=0.5,
                       fast_window_s=5.0, slow_window_s=30.0,
                       fast_burn=1.5, unit="nodes")
        clock, registry, journal, tracker = make_tracker(spec)
        state = {"down": 0}
        registry.gauge_fn("svc.nodes_down", lambda: state["down"])
        tracker.sample()
        state["down"] = 1
        for _ in range(3):
            clock.charge(1.0)
            tracker.sample()
        assert tracker.breached() == ["down"]
        state["down"] = 0
        clock.charge(spec.fast_window_s + 1.0)
        tracker.sample()
        clock.charge(1.0)
        tracker.sample()
        assert tracker.breached() == []

    def test_under_budget_bad_events_do_not_breach(self):
        spec = SloSpec("lat", "svc.latency_s", target=1.0, budget=0.5,
                       fast_window_s=10.0, slow_window_s=60.0)
        clock, registry, journal, tracker = make_tracker(spec)
        hist = registry.histogram("svc.latency_s")
        tracker.sample()
        for _ in range(20):
            hist.observe(0.5)  # all within target
        hist.observe(5.0)      # one bad event: 1/21 << 0.5 budget
        clock.charge(1.0)
        tracker.sample()
        assert tracker.breached() == []
        assert journal.count("slo.breach") == 0

    def test_breach_events_carry_a_span_id(self):
        spec = SloSpec("lat", "svc.latency_s", target=1.0, budget=0.01,
                       fast_window_s=10.0, slow_window_s=60.0)
        clock, registry, journal, tracker = make_tracker(spec)
        tracer = Tracer(clock)
        journal.tracer = tracer
        tracker.tracer = tracer
        hist = registry.histogram("svc.latency_s")
        tracker.sample()
        hist.observe(9.0)
        clock.charge(1.0)
        tracker.sample()
        breach = journal.events(type="slo.breach")[-1]
        assert breach.span_id is not None

    def test_summary_shape_and_duplicate_spec_rejected(self):
        clock = SimClock()
        registry = MetricsRegistry()
        tracker = SloTracker(clock, registry)
        assert sorted(s.name for s in tracker.specs()) == \
            sorted(s.name for s in default_specs())
        summary = tracker.summary()
        assert summary["breaches"] == 0 and summary["breached_now"] == []
        for body in summary["specs"].values():
            assert {"target", "observed", "fast_burn_rate",
                    "slow_burn_rate", "breached", "breaches"} <= set(body)
        with pytest.raises(ValueError):
            tracker.add_spec(default_specs()[0])

    def test_null_tracker_is_inert(self):
        NULL_SLOS.sample()
        assert NULL_SLOS.breached() == []
        assert NULL_SLOS.summary()["specs"] == {}


# -- health monitor -----------------------------------------------------------

def build_cluster(nodes=3, rf=2, files=60):
    service = PropellerService(num_index_nodes=nodes,
                               replication_factor=rf)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    service.vfs.mkdir("/d")
    paths = []
    for i in range(files):
        path = f"/d/f{i:03d}"
        service.vfs.write_file(path, 1024 * (i + 1), pid=1)
        paths.append(path)
    client.index_paths(paths, pid=1)
    client.flush_updates()
    service.advance(2.0)
    return service, client


class TestHealthMonitor:
    def test_healthy_cluster_verdict(self):
        service, _ = build_cluster()
        verdict = service.health.verdict()
        assert verdict.verdict == "healthy" and verdict.causes == ()
        assert all(v == "healthy" for v, _ in verdict.nodes.values())

    def test_gauges_registered_and_sane(self):
        service, _ = build_cluster()
        snapshot = service.registry.snapshot("cluster.health")
        assert snapshot["cluster.health.nodes_down"] == 0
        assert snapshot["cluster.health.repl_lag_max"] == 0
        assert snapshot["cluster.health.under_replicated"] == 0

    def test_registered_node_down_is_critical(self):
        service, _ = build_cluster()
        victim = next(iter(service.index_nodes))
        service.fail_node(victim)
        verdict = service.health.verdict()
        assert verdict.verdict == "critical"
        assert verdict.nodes[victim] == ("critical", ("down",))
        assert any(c.startswith("partitions_stranded")
                   or c.startswith(f"node_down:{victim}")
                   for c in verdict.causes)

    def test_departed_node_after_failover_is_degraded(self):
        service, _ = build_cluster()
        victim = next(iter(service.index_nodes))
        service.index_nodes[victim].crash()
        service.master.failover(victim)
        verdict = service.health.verdict()
        assert verdict.verdict == "degraded"
        assert verdict.nodes[victim][0] == "degraded"
        assert "departed" in verdict.nodes[victim][1]

    def test_verdict_transitions_are_journaled(self):
        service, _ = build_cluster()
        service.health.sample()
        victim = next(iter(service.index_nodes))
        service.index_nodes[victim].crash()
        service.health.sample()
        service.master.failover(victim)
        service.recover_node(victim)
        service.advance(5.0)
        types = [e.type for e in service.journal.events(type="health")]
        assert types[0] == "health.critical"
        assert types[-1] == "health.healthy"
        last = service.journal.events(type="health.healthy")[-1]
        assert last.detail["previous"] in ("degraded", "critical")

    def test_null_health_is_inert(self):
        NULL_HEALTH.sample()
        assert NULL_HEALTH.verdict().verdict == "healthy"
        assert NULL_HEALTH.summary()["gauges"] == {}


# -- threaded emissions -------------------------------------------------------

def empty_snapshot(acg_id):
    """A primary's bootstrap segment for a partition with no files."""
    from repro.cluster.index_node import AcgReplica
    from repro.cluster.segments import encode_segment

    return encode_segment(AcgReplica(acg_id, Machine(SimClock())), "p1")


class TestClusterEmissions:
    def test_placement_emits_route_and_repl_epoch_bumps(self):
        service, _ = build_cluster()
        assert service.journal.count("route.epoch_bump") >= 1
        bump = service.journal.events(type="repl.epoch_bump")[0]
        assert bump.detail["reason"] in ("membership", "forced")
        assert bump.acg_id is not None and bump.repl_epoch is not None

    def test_failover_event_is_a_journal_view(self):
        service, _ = build_cluster()
        victim = next(iter(service.index_nodes))
        service.index_nodes[victim].crash()
        service.master.failover(victim)
        assert service.journal.count("failover") == 1
        event = service.journal.events(type="failover")[0]
        # The legacy failover_log is served from the same payloads.
        assert service.master.failover_log[-1] is event.payload
        assert event.type in ("failover.promoted", "failover.adopted")

    def test_stale_install_fences_and_journals(self):
        from repro.cluster.index_node import IndexNode

        node = IndexNode("f1", Machine(SimClock()))
        journal = EventJournal(node.machine.clock)
        node.journal = journal
        node.handle_install_follower(1, "p1", 3, 5, empty_snapshot(1))
        with pytest.raises(StaleReplEpoch):
            node.handle_install_follower(1, "p0", 2, 0, empty_snapshot(1))
        fence = journal.events(type="repl.fence")[-1]
        assert fence.node == "f1" and fence.acg_id == 1
        assert fence.detail["stale_epoch"] == 2
        assert fence.detail["rpc"] == "install_follower"

    def test_stale_replicate_apply_fences(self):
        from repro.cluster.index_node import IndexNode

        node = IndexNode("f1", Machine(SimClock()))
        journal = EventJournal(node.machine.clock)
        node.journal = journal
        node.handle_install_follower(1, "p1", 3, 0, empty_snapshot(1))
        (outcome,) = node.handle_replicate_apply([(1, 2, [])])
        assert isinstance(outcome.error, StaleReplEpoch)
        assert journal.count("repl.fence") == 1

    def test_node_crash_and_restart_are_journaled(self):
        service, _ = build_cluster()
        victim = next(iter(service.index_nodes))
        node = service.index_nodes[victim]
        node.crash()
        node.restart()
        crash = service.journal.events(type="node.crash")[-1]
        assert crash.node == victim
        assert service.journal.count("node.restart") == 1

    def test_chaos_fault_configuration_is_journaled(self):
        from repro.chaos.faults import FaultInjector

        clock = SimClock()
        journal = EventJournal(clock)
        faults = FaultInjector(seed=1, journal=journal)
        faults.set_message_faults(drop=0.1)
        faults.slow_node("in2", 0.5, probability=0.3)
        faults.arm_method_fault("in1", "search", count=2)
        faults.set_disk_error_rate(0.05)
        assert journal.count("chaos.fault_injected") == 4
        kinds = {e.detail["fault"]
                 for e in journal.events(type="chaos.fault_injected")}
        assert kinds == {"message_faults", "straggler", "armed_drop",
                         "disk_errors"}
        # A quiescent reconfiguration (all rates zero) is not a fault.
        faults.clear_message_faults()
        assert journal.count("chaos.fault_injected") == 4


# -- end-to-end acceptance ----------------------------------------------------

class TestEndToEnd:
    def test_fault_to_recovery_journal_is_causally_ordered(self):
        """The acceptance story: fault -> failover promotion (epoch
        bumps span-correlated) -> the deposed primary's stale write
        fenced -> SLO breach + recover -> verdict arc degraded ->
        healthy, all in one ordered journal."""
        service, client = build_cluster(nodes=3, rf=2, files=80)
        service.enable_tracing()
        # A tight SLO over the health plane's own gauge so the crash
        # window breaches deterministically and recovery clears it.
        service.slos.add_spec(SloSpec(
            "nodes_up", "cluster.health.nodes_down", target=0.0,
            budget=0.4, fast_window_s=4.0, slow_window_s=20.0,
            fast_burn=1.0, unit="nodes"))
        service.advance(2.0)
        assert service.status()["health"]["verdict"] == "healthy"

        # The victim must primary a replicated partition the client has
        # a cached route to, so the dual-ownership window below can ride
        # a real stale-routed update.
        victim = next(name for name, node in service.index_nodes.items()
                      if node.repl)
        victim_node = service.index_nodes[victim]
        stale_path = next(
            f"/d/f{i:03d}" for i in range(80)
            if client._file_routes.get(
                service.vfs.stat(f"/d/f{i:03d}").ino) in victim_node.repl)

        # Endpoint-only kill: the process (and its primary claim) stays.
        service.fail_node(victim)
        service.advance(3.0)
        assert service.status()["health"]["verdict"] == "critical"
        assert "nodes_up" in service.slos.breached()
        service.master.failover(victim)
        service.advance(1.0)
        assert service.status()["health"]["verdict"] == "degraded"

        # Dual-ownership window: the old primary comes back silently —
        # the Master failed it over, but it still claims its partition
        # at the stale epoch and the client still routes to it.  The
        # stale-routed re-index is accepted, the catch-up stream hits
        # the promoted follower, and the re-install is fenced
        # (own_primary_claim) — so the old primary deposes itself.
        victim_node.endpoint.recover()
        client.index_path(stale_path, pid=1)
        assert client.flush_updates() == 1   # stale primary acked it
        victim_node.tick()
        service.advance(1.0)
        # Deposed, claim dropped (the victim's other partition — the
        # empty one a slab allocation left it — saw no write to fence).
        stale_acg = client._file_routes[service.vfs.stat(stale_path).ino]
        assert stale_acg not in victim_node.repl

        service.recover_node(victim)
        service.advance(10.0)

        status = service.status()
        assert status["health"]["verdict"] == "healthy"
        assert service.slos.breached() == []
        assert service.slos.breach_count() == 1

        # Causal order: fault before breach before failover-promotion
        # epoch bumps before fence/depose before rejoin before recover
        # before healthy.
        def first_seq(type):
            events = service.journal.events(type=type)
            assert events, f"no {type} event journaled"
            return events[0].seq

        crash = first_seq("node.crash")
        breach = first_seq("slo.breach")
        failover = first_seq("failover")
        fence = first_seq("repl.fence")
        depose = first_seq("repl.depose")
        rejoin = first_seq("node.rejoin")
        recover = first_seq("slo.recover")
        healthy = service.journal.events(type="health.healthy")[-1].seq
        assert (crash < breach < failover < fence < depose < rejoin
                < recover < healthy)

        # The fence names the protocol step and the stale claimant; the
        # depose lands on the fenced node.
        fence_event = service.journal.events(type="repl.fence")[0]
        assert fence_event.detail["reason"] == "own_primary_claim"
        assert fence_event.detail["primary"] == victim
        assert service.journal.events(type="repl.depose")[0].node == victim

        # Span correlation: events emitted inside the failover span
        # share its id, and the SLO alert carries its own span.
        promo = [e for e in service.journal.events(type="repl.epoch_bump")
                 if e.detail.get("reason") == "promotion"]
        assert promo and promo[0].span_id is not None
        routes = [e for e in service.journal.events(type="route.epoch_bump")
                  if e.span_id == promo[0].span_id]
        assert routes, "promotion and rebump should share the failover span"
        assert service.journal.events(type="slo.breach")[0].span_id \
            is not None

    def test_status_snapshot_sections(self):
        service, _ = build_cluster()
        status = service.status(events_tail=5)
        assert set(status) == {"health", "slo", "master", "stats",
                               "journal", "events", "tiers"}
        assert status["master"]["acting"] == "master"
        assert status["master"]["term"] == 1
        assert status["master"]["standby_lag"] is None
        assert len(status["events"]) <= 5
        assert status["journal"]["total"] >= len(status["events"])
        json.dumps(status, sort_keys=True)  # JSON-clean end to end


# -- CLI ----------------------------------------------------------------------

class TestCli:
    def test_status_json(self, capsys):
        assert main(["status", "--nodes", "2", "--files", "80",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["health"]["verdict"] == "healthy"
        assert payload["slo"]["breaches"] == 0
        assert payload["journal"]["by_type"]

    def test_status_dashboard_text(self, capsys):
        assert main(["status", "--nodes", "2", "--files", "80"]) == 0
        out = capsys.readouterr().out
        assert "health: HEALTHY" in out
        assert "health gauges" in out and "slos" in out
        assert "route.epoch_bump" in out

    def test_events_filters_and_json(self, capsys):
        assert main(["events", "--nodes", "2", "--files", "80",
                     "--type", "repl", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events"]
        assert all(e["type"].startswith("repl") for e in payload["events"])

    def test_events_text_lists_journal(self, capsys):
        assert main(["events", "--nodes", "2", "--files", "80",
                     "--tail", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4  # 3 events + the summary line
        assert out[-1].startswith("#")

    def test_status_with_chaos_seed_is_deterministic(self, capsys):
        args = ["status", "--chaos-seed", "3", "--chaos-steps", "12",
                "--json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["journal"]["by_type"].get("chaos.fault_injected",
                                                 0) >= 1
