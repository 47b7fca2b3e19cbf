"""Tests for span tracing (repro.obs.tracing), query profiles
(repro.obs.profile), exporters, and the profile CLI surface."""

import json

import pytest

from repro import IndexKind, PropellerService
from repro.cli import main
from repro.errors import ClusterError
from repro.obs.export import (
    registry_to_json, render_registry, render_span_tree, span_to_dict,
    span_to_json)
from repro.obs.profile import QueryProfile, critical_children
from repro.obs.tracing import NULL_TRACER, Span, Tracer
from repro.sim.clock import SimClock
from repro.workloads.datasets import populate_namespace


def build_small_service(num_index_nodes=2, files=300, tracing=False):
    service = PropellerService(num_index_nodes=num_index_nodes)
    if tracing:
        service.enable_tracing()
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    client.create_index("by_kw", IndexKind.HASH, ["keyword"])
    paths = populate_namespace(service.vfs, files, seed=2)
    client.index_paths(paths, pid=1)
    client.flush_updates()
    service.commit_all()
    return service, client


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("outer") as outer:
            clock.charge(1.0)
            with tracer.span("inner", k=1) as inner:
                clock.charge(0.5)
        assert tracer.last_root() is outer
        assert outer.children == [inner]
        assert outer.duration == pytest.approx(1.5)
        assert inner.duration == pytest.approx(0.5)
        assert inner.attributes == {"k": 1}

    def test_exception_marks_span_errored_and_propagates(self):
        tracer = Tracer(SimClock())
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("boom")
        root = tracer.last_root("work")
        assert root.status == "error"
        assert "boom" in root.error

    def test_annotate_hits_innermost_open_span(self):
        tracer = Tracer(SimClock())
        with tracer.span("a"):
            with tracer.span("b") as b:
                tracer.annotate("page_faults")
                tracer.annotate("page_faults", 2)
        assert b.metrics == {"page_faults": 3.0}

    def test_roots_history_is_bounded(self):
        tracer = Tracer(SimClock(), max_roots=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.roots) == 4
        assert tracer.last_root().name == "s9"

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", k=1) as span:
            span.record("x")
            span.set_attribute("y", 2)
        assert NULL_TRACER.last_root() is None
        assert NULL_TRACER.current is None
        assert not NULL_TRACER.enabled


class TestTracedSearch:
    def test_search_span_tree_has_all_stages(self):
        service, client = build_small_service()
        service.enable_tracing()
        client.search("size>1m")
        root = service.tracer.last_root("search")
        assert root is not None and root.end is not None
        # Routing comes from the client's cached route table — no
        # route_search RPC appears on the search path any more.
        for stage in ("fanout", "rpc:search",
                      "cache_commit", "plan", "index_scan"):
            assert root.find(stage), f"missing stage: {stage}"
        # Fan-out legs are marked parallel, one rpc:search per targeted node.
        fanout = root.find("fanout")[0]
        assert fanout.attributes.get("parallel") is True
        assert len(fanout.find("rpc:search")) == fanout.attributes["nodes"]

    def test_stage_self_times_sum_to_search_latency(self):
        service, client = build_small_service()
        service.enable_tracing()
        t0 = service.clock.now()
        client.search("size>1m")
        latency = service.clock.now() - t0
        profile = QueryProfile(service.tracer.last_root("search"))
        assert profile.total_s == pytest.approx(latency)
        stage_sum = sum(agg["self_s"] for agg in profile.by_stage().values())
        assert stage_sum == pytest.approx(profile.total_s)

    def test_tracing_charges_zero_simulated_time(self):
        """The same workload lands on the identical virtual timestamp with
        tracing on and off — instrumentation is free in simulated time."""
        finals = []
        for tracing in (False, True):
            service, client = build_small_service(tracing=tracing)
            client.search("size>1m")
            client.search("keyword:firefox")
            finals.append(service.clock.now())
        assert finals[0] == finals[1]

    def test_profile_search_requires_tracing(self):
        service, client = build_small_service()
        with pytest.raises(ClusterError):
            client.profile_search("size>1m")
        service.enable_tracing()
        profile = client.profile_search("size>1m")
        assert profile.query == "size>1m"
        assert profile.total_s > 0.0

class TestProfile:
    def _profiled(self):
        service, client = build_small_service()
        service.enable_tracing()
        return client.profile_search("size>1m")

    def test_open_root_rejected(self):
        span = Span("open", 0.0)
        with pytest.raises(ValueError):
            QueryProfile(span)

    def test_critical_children_picks_slowest_parallel_leg(self):
        parent = Span("fanout", 0.0, {"parallel": True})
        fast, slow = Span("a", 0.0), Span("b", 0.0)
        fast.end, slow.end = 1.0, 3.0
        parent.children = [fast, slow]
        parent.end = 3.0
        assert critical_children(parent) == [slow]
        parent.attributes = {}
        assert critical_children(parent) == [fast, slow]

    def test_render_mentions_stages_and_total(self):
        profile = self._profiled()
        text = profile.render()
        assert "query profile" in text
        assert "index_scan" in text
        assert "per-stage totals" in text

    def test_to_dict_is_json_serializable(self):
        profile = self._profiled()
        payload = json.loads(json.dumps(profile.to_dict()))
        assert payload["query"] == "size>1m"
        assert payload["tree"]["name"] == "search"
        assert "index_scan" in payload["stages"]


class TestExport:
    def test_span_round_trip(self):
        tracer = Tracer(SimClock())
        with tracer.span("root", target="in1"):
            with tracer.span("leaf"):
                tracer.annotate("disk_reads", 2)
        root = tracer.last_root()
        d = span_to_dict(root)
        assert d["name"] == "root"
        assert d["children"][0]["metrics"] == {"disk_reads": 2.0}
        assert json.loads(span_to_json(root))["attributes"] == {"target": "in1"}
        assert "leaf" in render_span_tree(root)

    def test_registry_render_and_json(self):
        service, client = build_small_service(num_index_nodes=1)
        client.search("size>1m")
        text = render_registry(service.registry, prefix="cluster.in1")
        assert "cluster.in1.disk.reads" in text
        payload = json.loads(registry_to_json(service.registry))
        assert payload["cluster.master.partitions"] >= 1


class TestCli:
    def test_profile_subcommand(self, capsys):
        assert main(["profile", "size>16m", "--files", "200",
                     "--nodes", "1"]) == 0
        out = capsys.readouterr().out
        assert "query profile" in out
        assert "index_scan" in out

    def test_profile_json(self, capsys):
        assert main(["profile", "size>16m", "--files", "200",
                     "--nodes", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tree"]["name"] == "search"

    def test_profile_bad_query_exits_2(self, capsys):
        assert main(["profile", "size>>>", "--files", "100",
                     "--nodes", "1"]) == 2

    def test_query_profile_flag(self, capsys):
        assert main(["query", "size>16m", "--files", "200", "--nodes", "1",
                     "--limit", "2", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "matches in" in out
        assert "query profile" in out
