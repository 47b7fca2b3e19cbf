"""Tests for the metrics registry (repro.obs.metrics)."""

import random

import pytest

from repro.errors import SimulationError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_increment_rejected(self):
        c = Counter("x")
        with pytest.raises(SimulationError):
            c.inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("x")
        g.set(3)
        g.set(7.5)
        assert g.value == 7.5

    def test_callable_gauge_reads_live_state(self):
        reg = MetricsRegistry()
        state = {"n": 1}
        reg.gauge_fn("live", lambda: state["n"])
        assert reg.value("live") == 1
        state["n"] = 42
        assert reg.value("live") == 42


class TestHistogram:
    def test_summary_exact_scalars(self):
        h = Histogram("lat")
        for v in (0.001, 0.002, 0.003, 0.010):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["min"] == pytest.approx(0.001)
        assert s["max"] == pytest.approx(0.010)
        assert s["mean"] == pytest.approx(0.004)

    def test_empty_reads_zero(self):
        h = Histogram("lat")
        assert (h.mean, h.minimum, h.maximum, h.percentile(99)) == (0.0,) * 4

    def test_percentiles_exact_under_reservoir_size(self):
        h = Histogram("lat")
        for i in range(1, 101):
            h.observe(i / 1000.0)
        assert h.percentile(50) == pytest.approx(0.050)
        assert h.percentile(99) == pytest.approx(0.099)
        assert h.percentile(100) == pytest.approx(0.100)

    def test_reservoir_bounds_memory_and_estimates_percentiles(self):
        h = Histogram("lat", reservoir_size=256)
        n = 20_000
        for i in range(n):
            h.observe(i / n)  # uniform on [0, 1)
        assert len(h._reservoir) == 256
        assert h.count == n
        # Uniform data: the p50 estimate should land near 0.5.
        assert h.percentile(50) == pytest.approx(0.5, abs=0.1)
        # min/max stay exact even though most samples were dropped.
        assert h.summary()["max"] == pytest.approx((n - 1) / n)

    def test_bucket_counts_cover_all_observations(self):
        h = Histogram("lat")
        for v in (5e-7, 3e-6, 0.5, 1e3):  # below, inside, inside, overflow
            h.observe(v)
        assert sum(h.bucket_counts) == 4
        assert h.bucket_counts[-1] == 1  # 1e3 > top bucket bound (100 s)

    def test_deterministic_across_instances(self):
        a = Histogram("a", reservoir_size=64)
        b = Histogram("b", reservoir_size=64)
        rng = random.Random(7)
        for _ in range(5000):
            v = rng.random()
            a.observe(v)
            b.observe(v)
        assert a.percentile(95) == b.percentile(95)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.histogram("a.h") is reg.histogram("a.h")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(SimulationError):
            reg.gauge("a.b")
        with pytest.raises(SimulationError):
            reg.histogram("a.b")
        with pytest.raises(SimulationError):
            reg.gauge_fn("a.b", lambda: 0)

    def test_find_matches_dotted_prefix_only(self):
        reg = MetricsRegistry()
        reg.counter("cluster.in1.disk.reads")
        reg.counter("cluster.in10.disk.reads")
        reg.counter("cluster.in1.disk.writes")
        assert sorted(reg.find("cluster.in1")) == [
            "cluster.in1.disk.reads", "cluster.in1.disk.writes"]

    def test_snapshot_values(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.25)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1

    def test_snapshot_prefix_filters(self):
        reg = MetricsRegistry()
        reg.counter("a.x").inc()
        reg.counter("b.y").inc()
        assert list(reg.snapshot("a")) == ["a.x"]

    def test_value_unknown_name_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(SimulationError):
            reg.value("nope")


class TestLatencyCollectorBounded:
    """A Histogram with a small reservoir, as the latency collector of a
    bench: retention is capped, the scalars stay exact."""

    def test_bounded_mode_caps_retention_exact_scalars(self):
        lc = Histogram("x", reservoir_size=128)
        n = 10_000
        for i in range(n):
            lc.observe(i / n)
        assert lc.count == n                    # count is exact
        assert len(lc._reservoir) == 128        # retention is bounded
        assert lc.total == pytest.approx(sum(i / n for i in range(n)))
        assert lc.minimum == 0.0
        assert lc.maximum == (n - 1) / n
        assert lc.mean == pytest.approx(lc.total / n)
        # Percentiles become estimates but should stay in the ballpark.
        assert lc.percentile(50) == pytest.approx(0.5, abs=0.15)

    def test_bounded_mode_deterministic(self):
        runs = []
        for _ in range(2):
            lc = Histogram("x", reservoir_size=32)
            for i in range(5000):
                lc.observe((i * 37 % 1000) / 1000.0)
            runs.append((lc.percentile(50), lc.percentile(99), list(lc._reservoir)))
        assert runs[0] == runs[1]


class TestStatsRegistryView:
    """PropellerService.stats() must be a faithful view of the registry."""

    def test_stats_matches_registry_values(self):
        from repro import IndexKind, PropellerService
        from repro.workloads.datasets import populate_namespace

        service = PropellerService(num_index_nodes=2)
        client = service.make_client()
        client.create_index("by_size", IndexKind.BTREE, ["size"])
        paths = populate_namespace(service.vfs, 200, seed=3)
        client.index_paths(paths, pid=1)
        client.flush_updates()
        service.commit_all()
        client.search("size>1m")

        stats = service.stats()
        reg = service.registry
        assert stats["indexed_files"] == reg.value("cluster.indexed_files")
        assert stats["partitions"] == reg.value("cluster.master.partitions")
        assert stats["network_messages"] == reg.value(
            "cluster.network.messages")
        for name, node_stats in stats["nodes"].items():
            assert node_stats["up"] is True
            assert node_stats["disk_reads"] == reg.value(
                f"cluster.{name}.disk.reads")
            assert node_stats["files"] == reg.value(f"cluster.{name}.files")

    def test_client_search_metrics_advance(self):
        from repro import IndexKind, PropellerService
        from repro.workloads.datasets import populate_namespace

        service = PropellerService(num_index_nodes=1)
        client = service.make_client()
        client.create_index("by_size", IndexKind.BTREE, ["size"])
        paths = populate_namespace(service.vfs, 100, seed=3)
        client.index_paths(paths, pid=1)
        client.flush_updates()
        service.commit_all()
        for _ in range(3):
            client.search("size>1m")
        assert service.registry.value("cluster.client.searches") == 3
        hist = service.registry.histogram("cluster.client.search_latency_s")
        assert hist.count == 3
        assert hist.mean > 0.0
