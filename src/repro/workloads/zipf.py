"""Zipf-skewed access.

Real file accesses are heavily skewed — a few hot files absorb most of
the traffic.  Uniform streams (``random_update_requests``) understate
cache effectiveness; this sampler provides the skewed counterpart.
"""

from __future__ import annotations

import bisect
import random
from typing import List


class ZipfSampler:
    """Samples ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^s.

    Uses an exact inverse-CDF table (fine for the n ≤ 10^6 range the
    workloads need).
    """

    def __init__(self, n: int, s: float = 1.0, seed: int = 0) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1: {n}")
        if s < 0:
            raise ValueError(f"s must be >= 0: {s}")
        self.n = n
        self.s = s
        self._rng = random.Random(seed)
        cumulative: List[float] = []
        total = 0.0
        for k in range(n):
            total += 1.0 / (k + 1) ** s
            cumulative.append(total)
        self._cdf = [c / total for c in cumulative]

    def sample(self) -> int:
        """Draw one rank (0 = hottest)."""
        return bisect.bisect_left(self._cdf, self._rng.random())
