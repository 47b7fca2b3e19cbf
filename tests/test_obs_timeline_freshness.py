"""Tests for the telemetry tentpole: TimelineRecorder (virtual-clock time
series) and FreshnessTracker (change-to-search-visible staleness), plus
their wiring into PropellerService and the crawler baseline."""

import random

import pytest

from repro import IndexKind, PropellerService
from repro.obs.freshness import NULL_FRESHNESS, FreshnessTracker, NullFreshness
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import NULL_TIMELINE, NullTimeline, TimelineRecorder
from repro.sim.clock import SimClock
from repro.workloads.datasets import populate_namespace


def build_service(files=300, nodes=2):
    service = PropellerService(num_index_nodes=nodes)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    paths = populate_namespace(service.vfs, files, seed=7)
    return service, client, paths


class TestTimelineRecorder:
    def test_sampling_never_charges_the_clock(self):
        clock = SimClock()
        timeline = TimelineRecorder(clock, interval_s=1.0)
        state = {"v": 0}
        timeline.track("v", lambda: state["v"])
        for step in range(50):
            clock.charge(0.37)
            state["v"] = step
            before = clock.now()
            timeline.sample_if_due()
            assert clock.now() == before   # reads only, zero virtual cost
        assert len(timeline) > 0

    def test_timestamps_strictly_increasing_under_random_advances(self):
        # Property-style: whatever charge pattern drives it — including
        # zero-length advances and bursts shorter than the interval —
        # sampled timestamps are strictly increasing.
        rng = random.Random(0xC10C)
        for trial in range(20):
            clock = SimClock()
            timeline = TimelineRecorder(clock, interval_s=rng.choice((0.1, 1.0, 5.0)))
            timeline.track("t", clock.now)
            for _ in range(200):
                if rng.random() < 0.2:
                    timeline.sample_if_due()   # possibly due, possibly not
                else:
                    clock.charge(rng.uniform(0.0, 2.0))
            timeline.sample_if_due()
            points = timeline.series("t")
            times = [t for t, _ in points]
            assert times == sorted(set(times)), (trial, times)

    def test_sample_refuses_non_advancing_time(self):
        clock = SimClock()
        timeline = TimelineRecorder(clock, interval_s=1.0)
        timeline.track("x", lambda: 1)
        clock.charge(1.0)
        timeline.sample()
        assert len(timeline) == 1
        timeline.sample()          # same timestamp: dropped, not duplicated
        assert len(timeline) == 1

    def test_to_dict_and_render_roundtrip(self):
        clock = SimClock()
        timeline = TimelineRecorder(clock, interval_s=0.5)
        timeline.track("a", lambda: 42)
        clock.charge(1.0)
        timeline.sample()
        d = timeline.to_dict()
        assert d["interval_s"] == 0.5
        assert d["series"]["a"] == [[pytest.approx(1.0), 42]]
        assert "a" in timeline.render()

    def test_null_timeline_is_inert(self):
        assert not NULL_TIMELINE.enabled
        NULL_TIMELINE.sample_if_due()
        NULL_TIMELINE.sample()
        assert NULL_TIMELINE.to_dict()["series"] == {}
        assert isinstance(NULL_TIMELINE, NullTimeline)


class TestFreshnessTracker:
    def test_stamp_to_visible_measures_staleness(self):
        reg = MetricsRegistry()
        tracker = FreshnessTracker(reg)
        tracker.stamp(1, 10.0)
        tracker.stamp(1, 12.0)              # earliest wins
        assert tracker.visible("n1", 1, 15.0) == pytest.approx(5.0)
        assert tracker.visible("n1", 1, 16.0) is None   # already popped
        assert tracker.worst_s() == pytest.approx(5.0)
        assert reg.value("cluster.freshness.visible_events") == 1
        summary = tracker.summary()
        assert summary["nodes"]["n1"]["count"] == 1

    def test_pending_bounded_with_eviction(self):
        tracker = FreshnessTracker(MetricsRegistry(), max_pending=4)
        for i in range(10):
            tracker.stamp(i, float(i))
        assert tracker.pending == 4
        assert tracker.dropped == 6
        # The oldest stamps were evicted; the newest survive.
        assert tracker.visible("n", 9, 20.0) is not None
        assert tracker.visible("n", 0, 20.0) is None

    def test_pending_ttl_expires_orphaned_stamps(self):
        """A stamp whose update died with a failed node would otherwise
        sit in the pending map forever; the TTL reaps it and counts it."""
        reg = MetricsRegistry()
        tracker = FreshnessTracker(reg, pending_ttl_s=10.0)
        tracker.stamp(1, 0.0)
        tracker.stamp(2, 7.0)
        assert tracker.expire(5.0) == 0         # nothing old enough
        assert tracker.expire(11.0) == 1        # stamp 1 aged out
        assert tracker.pending == 1
        assert tracker.visible("n", 1, 12.0) is None   # gone
        assert tracker.visible("n", 2, 12.0) == pytest.approx(5.0)
        assert tracker.expired == 1
        assert reg.value("cluster.freshness.expired") == 1
        assert tracker.summary()["expired"] == 1

    def test_pending_ttl_disabled_never_expires(self):
        tracker = FreshnessTracker(MetricsRegistry(), pending_ttl_s=None)
        tracker.stamp(1, 0.0)
        assert tracker.expire(1e9) == 0
        assert tracker.pending == 1

    def test_pending_ttl_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FreshnessTracker(MetricsRegistry(), pending_ttl_s=0.0)

    def test_null_freshness_is_inert(self):
        assert not NULL_FRESHNESS.enabled
        NULL_FRESHNESS.stamp(1, 0.0)
        assert NULL_FRESHNESS.visible("n", 1, 1.0) is None
        assert NULL_FRESHNESS.expire(100.0) == 0
        assert isinstance(NULL_FRESHNESS, NullFreshness)

    def test_bound_instruments_equal_the_per_call_lookups(self):
        """``visible`` looks its instruments up once per node and keeps
        them; the registry must read exactly as when every call looked
        all three up by name — same instruments, created in the same
        order, same values — with nodes interleaved and unstamped files
        in between."""
        def per_call_visible(reg, pending, node, file_id, t):
            t0 = pending.pop(file_id, None)
            if t0 is None:
                return None
            staleness = max(0.0, t - t0)
            reg.histogram(f"cluster.{node}.staleness_s",
                          unit="s").observe(staleness)
            worst = reg.gauge("cluster.freshness.worst_s")
            if staleness > worst.value:
                worst.set(staleness)
            reg.counter("cluster.freshness.visible_events").inc()
            return staleness

        rng = random.Random(25)
        reg, ref = MetricsRegistry(), MetricsRegistry()
        tracker, pending = FreshnessTracker(reg), {}
        for file_id in range(400):
            t = file_id * 0.01
            if rng.random() < 0.8:
                tracker.stamp(file_id, t)
                pending.setdefault(file_id, t)
        for step in range(500):
            node = rng.choice(("in1", "in2", "in3"))
            file_id, t = rng.randrange(420), 4.0 + step * rng.random()
            assert tracker.visible(node, file_id, t) \
                == per_call_visible(ref, pending, node, file_id, t)
        assert list(reg.find("cluster")) == list(ref.find("cluster"))
        for name, instrument in ref.items():
            assert reg.value(name) == ref.value(name), name
            if name.endswith(".staleness_s"):
                assert reg.find(name)[name].reservoir_values() \
                    == instrument.reservoir_values(), name
        assert tracker.nodes() == ["in1", "in2", "in3"]


class TestServiceWiring:
    def test_enable_timeline_tracks_cluster_series(self):
        service, client, paths = build_service()
        timeline = service.enable_timeline(interval_s=0.001)
        client.index_paths(paths, pid=1)
        client.flush_updates()
        service.commit_all()
        service.advance(1.0)
        d = timeline.to_dict()
        for name in ("dirty_backlog", "load_skew", "cache_hit_rate",
                     "indexed_files", "failovers"):
            assert name in d["series"], name
            assert d["series"][name], name
        # indexed_files ends at the real total.
        assert d["series"]["indexed_files"][-1][1] == \
            service.total_indexed_files()

    def test_enable_freshness_measures_commit_visibility(self):
        service, client, paths = build_service()
        tracker = service.enable_freshness()
        client.index_paths(paths[:50], pid=1)
        client.flush_updates()
        service.advance(6.0)      # past the cache commit timeout
        service.commit_all()
        assert tracker.summary()["nodes"], "commits should be observed"
        assert tracker.worst_s() > 0.0

    def test_instrumentation_is_bit_identical(self):
        def workload(instrument):
            service, client, paths = build_service(files=200)
            if instrument:
                service.enable_timeline(interval_s=0.01)
                service.enable_freshness()
            client.index_paths(paths, pid=1)
            client.flush_updates()
            service.commit_all()
            latencies = []
            for _ in range(5):
                span = service.clock.span()
                client.search("size>1m")
                latencies.append(span.elapsed())
                service.pump()
            service.advance(2.0)
            return latencies, service.clock.now()

        assert workload(False) == workload(True)


class TestCrawlerProbe:
    def test_crawler_staleness_cdf(self):
        from repro.baselines.crawler import CrawlerConfig, CrawlerSearchEngine
        from repro.fs.vfs import VirtualFileSystem
        from repro.sim.events import EventLoop

        clock = SimClock()
        vfs = VirtualFileSystem(clock)
        loop = EventLoop(clock)
        reg = MetricsRegistry()
        tracker = FreshnessTracker(reg)
        crawler = CrawlerSearchEngine(
            vfs, loop, CrawlerConfig(reindex_rate_fps=100.0, pass_period_s=5.0),
            freshness=tracker, freshness_node="crawler")
        vfs.mkdir("/d")
        for i in range(20):
            vfs.write_file(f"/d/f{i}.txt", 1024, pid=1)
        loop.run_until(clock.now() + 30.0)
        summary = tracker.summary()
        assert "crawler" in summary["nodes"]
        assert summary["nodes"]["crawler"]["count"] > 0
        # Crawler staleness is bounded below by the pass period's order of
        # magnitude — that's Figure 1's argument.
        values = tracker.staleness_values("crawler")
        assert max(values) > 1.0
