"""Query EXPLAIN, the Zipf sampler, and the trace-gen/explain CLI commands."""

import pytest

from repro.cli import main
from repro.cluster import PropellerService
from repro.indexstructures import IndexKind
from repro.query.parser import parse_query
from repro.query.planner import IndexSpec, Plan, plan_query
from repro.workloads.zipf import ZipfSampler


# -- Plan.describe ------------------------------------------------------------

SPECS = [
    IndexSpec("by_size", IndexKind.BTREE, ("size",)),
    IndexSpec("by_uid", IndexKind.HASH, ("uid",)),
    IndexSpec("by_kw", IndexKind.HASH, ("keyword",)),
    IndexSpec("kd", IndexKind.KDTREE, ("size", "mtime")),
]


def test_describe_scan():
    assert "SCAN" in Plan("scan").describe()


def test_describe_btree_bounds_and_strictness():
    plan = plan_query(parse_query("size>10 & size<=90"), SPECS[:1], now=0)
    text = plan.describe()
    assert text == "BTREE RANGE by_size (10, 90]"


def test_describe_hash_and_keyword():
    assert plan_query(parse_query("uid==4"), SPECS, 0).describe() == \
        "HASH EQ by_uid[4]"
    assert plan_query(parse_query("keyword:logs"), SPECS, 0).describe() == \
        "KEYWORD by_kw['logs']"


def test_describe_kdtree():
    plan = plan_query(parse_query("size>10 & mtime<5"), SPECS, now=0)
    assert plan.describe() == "KDTREE RANGE kd (10..+inf, -inf..5)"


# -- client explain ---------------------------------------------------------------

def make_service():
    service = PropellerService(num_index_nodes=2)
    client = service.make_client()
    client.create_index("by_size", IndexKind.BTREE, ["size"])
    client.create_index("by_kw", IndexKind.HASH, ["keyword"])
    vfs = service.vfs
    vfs.mkdir("/d")
    for i in range(20):
        vfs.write_file(f"/d/f{i}", 100 + i, pid=1)
        client.index_path(f"/d/f{i}", pid=1)
    client.flush_updates()
    service.commit_all()
    return service, client


def test_explain_reports_per_acg_paths():
    service, client = make_service()
    plans = client.explain("size>100")
    assert plans
    for descriptions in plans.values():
        assert descriptions == ["BTREE RANGE by_size (100, +inf]"]


def test_explain_disjunction_lists_both_paths():
    service, client = make_service()
    plans = client.explain("size>100 | keyword:f1")
    descriptions = next(iter(plans.values()))
    assert len(descriptions) == 2


def test_explain_does_not_commit_cache():
    service, client = make_service()
    vfs = service.vfs
    vfs.write_file("/d/new", 5, pid=1)
    client.index_path("/d/new", pid=1)
    client.flush_updates()
    pending_before = sum(len(n.cache) for n in service.index_nodes.values())
    assert pending_before == 1
    client.explain("size>0")
    pending_after = sum(len(n.cache) for n in service.index_nodes.values())
    assert pending_after == 1


# -- Zipf ---------------------------------------------------------------------------

def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0)
    with pytest.raises(ValueError):
        ZipfSampler(10, s=-1)


def test_zipf_rank0_is_hottest():
    sampler = ZipfSampler(100, s=1.2, seed=1)
    counts = [0] * 100
    for _ in range(5000):
        counts[sampler.sample()] += 1
    assert counts[0] == max(counts)
    assert counts[0] > 5 * (sum(counts[50:]) / 50 + 1)


def test_zipf_s_zero_is_uniformish():
    sampler = ZipfSampler(10, s=0.0, seed=2)
    counts = [0] * 10
    for _ in range(10_000):
        counts[sampler.sample()] += 1
    assert min(counts) > 700


def test_zipf_update_requests_deterministic_and_skewed():
    # An update-request stream: each request names the file at a sampled rank.
    files = [f"/f{i}" for i in range(50)]

    def stream(seed):
        sampler = ZipfSampler(len(files), s=1.1, seed=seed)
        return [files[sampler.sample()] for _ in range(2000)]

    a = stream(3)
    assert a == stream(3)
    from collections import Counter
    top = Counter(a).most_common(1)[0][1]
    assert top > 2000 / 50 * 4   # far above the uniform share


# -- CLI ---------------------------------------------------------------------------------

def test_cli_trace_gen_roundtrips(tmp_path, capsys):
    out_file = tmp_path / "thrift.trace"
    code = main(["trace-gen", "--app", "thrift:0.2", "-o", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert "wrote" in captured.out
    from repro.core.traceio import acg_from_trace
    with open(out_file) as fh:
        graph = acg_from_trace(fh)
    assert graph.vertex_count > 50
    assert graph.edge_count > 0


def test_cli_trace_gen_unknown_app(tmp_path, capsys):
    code = main(["trace-gen", "--app", "vim", "-o", str(tmp_path / "x")])
    assert code == 2


def test_cli_explain(capsys):
    code = main(["explain", "size>16m", "--files", "200", "--nodes", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "BTREE RANGE" in captured.out


def test_cli_explain_bad_query(capsys):
    code = main(["explain", "size >", "--files", "50", "--nodes", "1"])
    assert code == 2
