"""Spectral bisection baseline.

The paper cites spectral methods (Hagen–Kahng ratio cut [24], Ng–Jordan–
Weiss [37]) as alternative partitioners.  This implements classic Fiedler-
vector bisection: split at the median of the second-smallest eigenvector of
the graph Laplacian.  Used in the partitioner ablation as a quality/speed
comparison point against the multilevel scheme in :mod:`repro.core.metis`.
"""

from __future__ import annotations

from typing import Set

import numpy as np

from repro.core.metis import Adjacency, BisectionResult, cut_of, total_edge_weight


def fiedler_vector(adjacency: Adjacency) -> np.ndarray:
    """Eigenvector of the Laplacian's second-smallest eigenvalue.

    Uses scipy's sparse Lanczos solver for big graphs and dense ``eigh``
    for small ones (Lanczos needs k < n and is unreliable for tiny n).
    """
    vertices = sorted(adjacency)
    n = len(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    if n < 3:
        return np.array([-1.0, 1.0][:n])
    if n <= 64:
        laplacian = np.zeros((n, n))
        for u, targets in adjacency.items():
            for v, w in targets.items():
                laplacian[pos[u], pos[v]] = -w
            laplacian[pos[u], pos[u]] = sum(targets.values())
        _, eigenvectors = np.linalg.eigh(laplacian)
        return eigenvectors[:, 1]
    from scipy.sparse import lil_matrix
    from scipy.sparse.linalg import eigsh

    laplacian = lil_matrix((n, n))
    for u, targets in adjacency.items():
        for v, w in targets.items():
            laplacian[pos[u], pos[v]] = -w
        laplacian[pos[u], pos[u]] = sum(targets.values())
    # A fixed start vector: ARPACK's own comes from process-wide random
    # state, which would bisect one graph differently from call to call.
    # Not the constant vector: that is the Laplacian's null eigenvector.
    start = np.random.default_rng(0).uniform(-1.0, 1.0, n)
    _, eigenvectors = eigsh(laplacian.tocsr(), k=2, which="SM", maxiter=5000,
                            v0=start)
    return eigenvectors[:, 1]


def spectral_bisect(adjacency: Adjacency) -> BisectionResult:
    """Bisect by thresholding the Fiedler vector at its median."""
    vertices = sorted(adjacency)
    if len(vertices) < 2:
        return BisectionResult(set(vertices), set(), 0, total_edge_weight(adjacency))
    fiedler = fiedler_vector(adjacency)
    order = np.argsort(fiedler, kind="stable")
    half = len(vertices) // 2
    side_a: Set[int] = {vertices[i] for i in order[:half]}
    side_b = set(vertices) - side_a
    return BisectionResult(side_a, side_b, cut_of(adjacency, side_a),
                           total_edge_weight(adjacency))
