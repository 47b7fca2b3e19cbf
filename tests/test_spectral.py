"""Spectral bisection baseline."""

import numpy as np
import pytest

from repro.core.metis import cut_of
from repro.core.spectral import fiedler_vector, spectral_bisect


def two_cliques(k):
    adj = {i: {} for i in range(2 * k)}
    for base in (0, k):
        for i in range(base, base + k):
            for j in range(base, base + k):
                if i != j:
                    adj[i][j] = 10
    adj[k - 1][k] = 1
    adj[k][k - 1] = 1
    return adj


def test_two_cliques_split_at_bridge_small():
    adj = two_cliques(6)
    result = spectral_bisect(adj)
    assert result.cut_weight == 1
    assert result.side_a | result.side_b == set(adj)


def test_two_cliques_split_at_bridge_large():
    # > 64 vertices exercises the sparse Lanczos path.
    adj = two_cliques(40)
    result = spectral_bisect(adj)
    assert result.cut_weight == 1


def test_path_graph_splits_in_middle():
    n = 20
    adj = {i: {} for i in range(n)}
    for i in range(n - 1):
        adj[i][i + 1] = 1
        adj[i + 1][i] = 1
    result = spectral_bisect(adj)
    assert result.cut_weight == 1
    # The two halves are the two ends of the path.
    assert max(result.side_a) < min(result.side_b) or max(result.side_b) < min(result.side_a)


def test_single_vertex():
    result = spectral_bisect({1: {}})
    assert result.side_a == {1}
    assert result.cut_weight == 0


def test_two_vertices():
    adj = {1: {2: 4}, 2: {1: 4}}
    result = spectral_bisect(adj)
    assert result.cut_weight == 4


def test_fiedler_vector_signs_separate_cliques():
    adj = two_cliques(5)
    fiedler = fiedler_vector(adj)
    vertices = sorted(adj)
    signs = {v: fiedler[i] > 0 for i, v in enumerate(vertices)}
    left = {v for v in vertices if signs[v]}
    assert left in ({0, 1, 2, 3, 4}, {5, 6, 7, 8, 9})


def test_balance_is_half():
    adj = two_cliques(10)
    result = spectral_bisect(adj)
    assert result.balance == pytest.approx(0.5)


def test_one_graph_bisects_one_way_call_after_call():
    # > 64 vertices: the Lanczos path, whose start vector is fixed.  The
    # Thrift ACG's largest component once cut 778 or 823 by call.
    from repro.workloads.apps import THRIFT_SPEC, CompileApplication

    graph = CompileApplication(THRIFT_SPEC).build_acg()
    adj = graph.subgraph(graph.connected_components()[0]).undirected_adjacency()
    cuts = {spectral_bisect(adj).cut_weight for _ in range(4)}
    assert len(cuts) == 1
    cliques = two_cliques(40)
    assert np.array_equal(fiedler_vector(cliques), fiedler_vector(cliques))
