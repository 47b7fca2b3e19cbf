"""AccessCausalityGraph: edges, components (vs networkx oracle), subgraphs."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acg import AccessCausalityGraph


def test_empty_graph():
    graph = AccessCausalityGraph()
    assert graph.vertex_count == 0
    assert graph.edge_count == 0
    assert graph.connected_components() == []


def test_add_file_creates_isolated_vertex():
    graph = AccessCausalityGraph()
    graph.add_file(1)
    assert graph.vertex_count == 1
    assert graph.connected_components() == [{1}]


def test_add_causality_creates_weighted_edge():
    graph = AccessCausalityGraph()
    graph.add_causality(1, 2)
    graph.add_causality(1, 2)
    graph.add_causality(1, 2, weight=3)
    assert graph.weight(1, 2) == 5
    assert graph.edge_count == 1
    assert graph.total_weight == 5


def test_direction_matters_for_weights():
    graph = AccessCausalityGraph()
    graph.add_causality(1, 2)
    assert graph.weight(2, 1) == 0
    graph.add_causality(2, 1, weight=4)
    assert graph.weight(2, 1) == 4
    assert graph.edge_count == 2


def test_self_loop_rejected():
    graph = AccessCausalityGraph()
    with pytest.raises(ValueError):
        graph.add_causality(1, 1)


def test_nonpositive_weight_rejected():
    graph = AccessCausalityGraph()
    with pytest.raises(ValueError):
        graph.add_causality(1, 2, weight=0)


def test_successors_predecessors():
    graph = AccessCausalityGraph()
    graph.add_causality(1, 2, 5)
    graph.add_causality(3, 2, 7)
    assert graph.successors(1) == {2: 5}
    assert graph.predecessors(2) == {1: 5, 3: 7}
    assert graph.neighbors(2) == {1, 3}


def test_remove_file_cleans_both_directions():
    graph = AccessCausalityGraph()
    graph.add_causality(1, 2)
    graph.add_causality(2, 3)
    graph.remove_file(2)
    assert not graph.has_vertex(2)
    assert graph.successors(1) == {}
    assert graph.predecessors(3) == {}
    assert graph.edge_count == 0


def test_merge_sums_weights():
    a = AccessCausalityGraph()
    a.add_causality(1, 2, 2)
    b = AccessCausalityGraph()
    b.add_causality(1, 2, 3)
    b.add_causality(4, 5, 1)
    b.add_file(9)
    a.merge(b.to_records())
    assert a.weight(1, 2) == 5
    assert a.weight(4, 5) == 1
    assert a.has_vertex(9)


def test_connected_components_largest_first():
    graph = AccessCausalityGraph()
    for i in range(5):
        graph.add_causality(i, i + 1)
    graph.add_causality(100, 101)
    graph.add_file(999)
    components = graph.connected_components()
    assert [len(c) for c in components] == [6, 2, 1]


def test_components_use_undirected_view():
    graph = AccessCausalityGraph()
    graph.add_causality(1, 2)
    graph.add_causality(3, 2)  # 3 -> 2: still connects 3 to {1, 2}
    assert graph.connected_components() == [{1, 2, 3}]


def test_subgraph_induces_edges():
    graph = AccessCausalityGraph()
    graph.add_causality(1, 2, 2)
    graph.add_causality(2, 3, 4)
    sub = graph.subgraph({1, 2})
    assert sub.weight(1, 2) == 2
    assert not sub.has_vertex(3)
    assert sub.edge_count == 1


def test_cut_weight():
    graph = AccessCausalityGraph()
    graph.add_causality(1, 2, 3)
    graph.add_causality(2, 3, 5)
    assert graph.cut_weight({1, 2}) == 5
    assert graph.cut_weight({2}) == 8


def test_undirected_adjacency_sums_both_directions():
    graph = AccessCausalityGraph()
    graph.add_causality(1, 2, 2)
    graph.add_causality(2, 1, 3)
    adj = graph.undirected_adjacency()
    assert adj[1][2] == 5
    assert adj[2][1] == 5


def test_records_roundtrip():
    graph = AccessCausalityGraph()
    graph.add_causality(1, 2, 2)
    graph.add_file(7)
    clone = AccessCausalityGraph.from_records(graph.to_records())
    assert clone.weight(1, 2) == 2
    assert clone.has_vertex(7)
    assert clone.vertex_count == graph.vertex_count


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=80))
def test_property_components_match_networkx(edges):
    graph = AccessCausalityGraph()
    oracle = nx.Graph()
    for u, v in edges:
        if u == v:
            continue
        graph.add_causality(u, v)
        oracle.add_edge(u, v)
    ours = sorted(tuple(sorted(c)) for c in graph.connected_components())
    theirs = sorted(tuple(sorted(c)) for c in nx.connected_components(oracle))
    assert ours == theirs


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20),
                          st.integers(1, 5)), max_size=60))
def test_property_cut_weight_matches_networkx(edges):
    graph = AccessCausalityGraph()
    oracle = nx.Graph()
    for u, v, w in edges:
        if u == v:
            continue
        graph.add_causality(u, v, w)
        if oracle.has_edge(u, v):
            oracle[u][v]["weight"] += w
        else:
            oracle.add_edge(u, v, weight=w)
    vertices = sorted(set(graph.vertices()))
    side = set(vertices[: len(vertices) // 2])
    expected = sum(d["weight"] for u, v, d in oracle.edges(data=True)
                   if (u in side) != (v in side))
    assert graph.cut_weight(side) == expected
