"""One pass per ACG flush, on both sides, against the code it replaced.

An Index Node folds a flushed fragment's records straight into the
replica's graph (``AccessCausalityGraph.merge``).  It used to build a
throwaway graph from the records and then merge that graph into its own.
The client groups each source's edges at once and builds placement hints
only once a vertex without a route turns up.  It used to group edge by
edge and always build the hints.  Derandomised hypothesis runs hold both
sides against the former code, kept here as the reference: the same
graph, byte for byte in what a segment reads, and the same fragments on
every node.  The guards below them pin the work that went away.
"""

import copy
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.messages import envelope_wire_bytes
from repro.core.acg import AccessCausalityGraph

from tests.conftest import machine_examples
from tests.test_flush_scatter import build

Record = Tuple[int, int, int]

# -- the node's fold ----------------------------------------------------------------


def reference_fold(graph: AccessCausalityGraph, records: List[Record]) -> None:
    """The former fold: a graph built from the records (the former
    ``from_records``), then merged into ``graph`` (the former
    ``merge(other)``)."""
    other = AccessCausalityGraph()
    for u, v, w in records:
        if v == -1:
            other.add_file(u)
        else:
            other.add_causality(u, v, w)
    for u in other._out:
        graph.add_file(u)
    for u, targets in other._out.items():
        mine = graph._out[u]
        for v, w in targets.items():
            mine[v] = mine.get(v, 0) + w
            sources = graph._in[v]
            sources[u] = sources.get(u, 0) + w


def state(graph: AccessCausalityGraph):
    """Everything the fold must keep: vertex order, every out-list in
    order with its weights, and the in-lists as dicts."""
    assert list(graph._in) == list(graph._out)
    return ([(u, list(targets.items())) for u, targets in graph._out.items()],
            graph._in)


VERTICES = st.integers(0, 9)
EDGES = st.tuples(VERTICES, VERTICES, st.integers(1, 4)).filter(
    lambda r: r[0] != r[1])
ISOLATED = st.tuples(VERTICES, st.just(-1), st.just(0))
RECORDS = st.lists(st.one_of(EDGES, ISOLATED), max_size=12)
BAD = st.one_of(st.tuples(VERTICES, VERTICES, st.integers(-2, 0)),
                VERTICES.map(lambda v: (v, v, 1)))


@settings(max_examples=machine_examples(80), derandomize=True, deadline=None)
@given(RECORDS, st.lists(RECORDS, min_size=1, max_size=4))
def test_the_fold_leaves_what_the_former_fold_left(base, fragments):
    """Repeated edges, isolated vertices, records naming vertices the
    graph already holds, fragments folded into a non-empty graph."""
    mine = AccessCausalityGraph.from_records(base)
    reference = AccessCausalityGraph()
    reference_fold(reference, base)
    assert state(mine) == state(reference)
    for records in fragments:
        mine.merge(records)
        reference_fold(reference, records)
        assert state(mine) == state(reference)
        assert mine.to_records() == reference.to_records()


@settings(max_examples=machine_examples(80), derandomize=True, deadline=None)
@given(RECORDS, RECORDS, BAD, RECORDS)
def test_a_bad_record_anywhere_leaves_the_graph_as_it_was(base, head, bad,
                                                          tail):
    graph = AccessCausalityGraph.from_records(base)
    before = copy.deepcopy(state(graph))
    with pytest.raises(ValueError):
        graph.merge(head + [bad] + tail)
    assert state(graph) == before
    with pytest.raises(ValueError):
        AccessCausalityGraph.from_records(head + [bad] + tail)


def test_a_bad_fragment_is_not_counted_as_a_graph_edit():
    service, _, parts = build()
    acg_id = min(parts)
    node = service.index_nodes[_home(service, acg_id)]
    replica = node.replicas[acg_id]
    edits, before = replica.graph_edits, copy.deepcopy(state(replica.graph))
    with pytest.raises(ValueError):
        node.handle_flush_acg([(acg_id, [(1, 2, 1), (3, 3, 1)])])
    assert replica.graph_edits == edits
    assert state(replica.graph) == before


def test_the_node_folds_without_building_a_graph(monkeypatch):
    service, client, parts = build()
    acg_id = min(parts)
    node = service.index_nodes[_home(service, acg_id)]
    files = sorted(node.replicas[acg_id].store.file_ids())
    built = []
    original = AccessCausalityGraph.__init__

    def counted(self):
        built.append(self)
        original(self)
    monkeypatch.setattr(AccessCausalityGraph, "__init__", counted)
    node.handle_flush_acg([(acg_id, [(files[0], files[1], 2),
                                     (files[1], files[2], 1),
                                     (files[3], -1, 0)])])
    assert built == []
    assert node.replicas[acg_id].graph.weight(files[0], files[1]) == 2


def _home(service, acg_id: int) -> str:
    return next(name for name, node in service.index_nodes.items()
                if acg_id in node.replicas)


# -- the client's grouping -----------------------------------------------------------


def reference_fragments(acg: AccessCausalityGraph, routes: Dict[int, int],
                        route_nodes: Dict[int, str]):
    """The former grouping: hints from every edge, then each edge and
    each placed vertex added one by one.  ``{node: [(acg_id, records)]}``
    in the order the fragments were first added."""
    vertices = sorted(acg.vertices())
    hints: Dict[int, int] = {}
    for u, v, _ in acg.edges():
        hints.setdefault(v, u)
    placement = {}
    for file_id in vertices:
        acg_id = routes.get(file_id)
        if acg_id is None:
            acg_id = routes.get(hints.get(file_id, -1))
        if acg_id is not None:
            placement[file_id] = (route_nodes[acg_id], acg_id)
    fragments: Dict[str, Dict[int, List[Record]]] = {}

    def add(file_id, record):
        node, acg_id = placement[file_id]
        fragments.setdefault(node, {}).setdefault(acg_id, []).append(record)

    for u, v, w in acg.edges():
        if u in placement:
            add(u, (u, v, w))
    for file_id in vertices:
        if file_id in placement:
            add(file_id, (file_id, -1, 0))
    return {node: list(parts.items()) for node, parts in fragments.items()}


@pytest.fixture(scope="module")
def cluster():
    """One four-node deployment, 40 files five to a partition, shared by
    the examples (a flush changes no route): the client and ten routed
    file ids, from every partition."""
    _, client, _ = build()
    return client, sorted(client._file_routes)[::4]


def flush(client, acg: AccessCausalityGraph):
    """Flush ``acg`` from ``client``; ``(returned edge count, {node:
    [(acg_id, records)]} as sent, {node: request_bytes})``."""
    sent, sizes = {}, {}
    call = client.rpc.call

    def spy(node, rpc, *args, **kwargs):
        if rpc == "flush_acg":
            sent[node] = [(acg_id, list(records))
                          for acg_id, records in args[0]]
            sizes[node] = kwargs["request_bytes"]
        return call(node, rpc, *args, **kwargs)
    with mock.patch.object(client.access_manager, "drain",
                           return_value=acg), \
            mock.patch.object(client.rpc, "call", spy):
        edges = client.flush_acg()
    return edges, sent, sizes


# Vertex slots 0-9 are routed files, 10-15 new ones: a new file with a
# routed first producer is placed by its hint, one without is left out.
SLOTS = st.integers(0, 15)
CLIENT_RECORDS = st.lists(st.one_of(
    st.tuples(SLOTS, SLOTS, st.integers(1, 3)).filter(lambda r: r[0] != r[1]),
    st.tuples(SLOTS, st.just(-1), st.just(0))), min_size=1, max_size=16)


@settings(max_examples=machine_examples(60), derandomize=True, deadline=None)
@given(CLIENT_RECORDS)
def test_every_node_gets_the_former_fragments(cluster, records):
    client, routed = cluster
    fresh = [10**6 + i for i in range(6)]
    ids = routed + fresh
    acg = AccessCausalityGraph()
    for u, v, w in records:
        if v == -1:
            acg.add_file(ids[u])
        else:
            acg.add_causality(ids[u], ids[v], w)
    expected = reference_fragments(acg, client._file_routes,
                                   client._route_nodes)
    hits, misses = client.route_cache_hits, client.route_cache_misses
    edges, sent, sizes = flush(client, acg)
    assert edges == acg.edge_count
    assert list(sent.items()) == list(expected.items())
    assert sizes == {node: envelope_wire_bytes(
        [12 * len(records) for _, records in parts])
        for node, parts in expected.items()}
    # Placing an ACG is not routing an update: the route-cache counters
    # stay where they were.
    assert (client.route_cache_hits, client.route_cache_misses) == (hits, misses)


def test_hints_are_built_only_for_a_flush_with_an_unrouted_file(
        cluster, monkeypatch):
    client, routed = cluster
    walks = []
    original = AccessCausalityGraph.first_producers

    def counted(self):
        walks.append(self)
        return original(self)
    monkeypatch.setattr(AccessCausalityGraph, "first_producers", counted)
    acg = AccessCausalityGraph()
    for u, v in zip(routed, routed[1:]):
        acg.add_causality(u, v, 2)
    edges, sent, _ = flush(client, acg)
    assert edges == len(routed) - 1 and sent
    assert walks == []
    # Two new files, one walk; the one behind a routed producer goes
    # with it, the one behind the other new file with neither.
    acg = AccessCausalityGraph()
    acg.add_causality(routed[0], 10**6, 1)
    acg.add_causality(10**6 + 1, 10**6 + 2, 1)
    _, sent, _ = flush(client, acg)
    assert walks == [acg]
    node, acg_id = (client._route_nodes[client._file_routes[routed[0]]],
                    client._file_routes[routed[0]])
    assert sent == {node: [(acg_id, [(routed[0], 10**6, 1),
                                     (routed[0], -1, 0),
                                     (10**6, -1, 0)])]}
