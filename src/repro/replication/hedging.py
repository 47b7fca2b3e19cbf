"""Tail-tolerant search hedging: a p95-derived hedge timer per search leg.

The policy follows "The Tail at Scale": send the leg to the primary; if no
answer arrives within roughly the observed p95 leg latency, issue the same
leg to a follower replica and take the first *sound* answer.  Soundness is
watermark-checked — a follower that has not applied every update the
client has been acked for a partition cannot silently serve a stale
answer (it may still serve one explicitly, under the client's opt-in
partial-results deadline).
"""

from __future__ import annotations

# Leg-latency histogram the policy derives its timer from.
LEG_HISTOGRAM = "cluster.client.search_leg_s"

# Observations needed before the p95 estimate is trusted over the default.
_MIN_SAMPLES = 8


class HedgePolicy:
    """Decides when a search leg gets hedged to a follower replica.

    ``delay_s()`` is the hedge timer: the observed p95 of primary leg
    latencies once enough samples exist, else ``default_delay_s``.  The
    client feeds every primary leg duration back via :meth:`observe`, so
    the timer adapts as the cluster's tail moves.  ``enabled`` turns the
    whole mechanism off (benchmarks compare both modes).
    """

    def __init__(self, registry, default_delay_s: float = 0.05,
                 enabled: bool = True) -> None:
        self.registry = registry
        self.default_delay_s = default_delay_s
        self.enabled = enabled
        self._hist = registry.histogram(LEG_HISTOGRAM)

    def observe(self, leg_seconds: float) -> None:
        """Record one primary leg's latency."""
        self._hist.observe(leg_seconds)

    def delay_s(self) -> float:
        """Virtual seconds to wait before hedging a leg."""
        if self._hist.count >= _MIN_SAMPLES:
            return self._hist.p95
        return self.default_delay_s
