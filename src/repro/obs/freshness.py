"""Index-freshness instrumentation.

Propeller's headline claim is *real-timeness*: the index is updated
inline on the I/O path instead of by stale crawls (Figure 1).  This
module measures that claim directly.  A :class:`FreshnessTracker` stamps
the virtual time at which a file changed (close-after-write, create, or
an explicit re-index request) and, when the corresponding update becomes
*search-visible* — committed to an Index Node's real indices, or folded
into a crawler's snapshot — records the elapsed virtual time as that
node's ``staleness``:

* ``cluster.<node>.staleness_s`` — a per-node histogram (seconds) whose
  reservoir is enough to draw a staleness CDF;
* ``cluster.freshness.worst_s`` — the worst staleness observed anywhere
  (the deployment's freshness bound);
* ``cluster.freshness.visible_events`` — how many stamped changes have
  become visible.

Stamps are bookkeeping about the simulation: stamping and resolving
charge **zero simulated time**, so enabling freshness tracking never
changes benchmark numbers.  The pending-stamp map is bounded — a change
that never reaches an index (created-then-ignored files) is evicted
oldest-first rather than leaking.

:data:`NULL_FRESHNESS` is the free disabled default, mirroring
:data:`~repro.obs.tracing.NULL_TRACER`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # annotation-only import, like repro.obs.tracing
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

DEFAULT_MAX_PENDING = 65536
DEFAULT_PENDING_TTL_S = 120.0

_STALENESS_SUFFIX = ".staleness_s"
_WORST_GAUGE = "cluster.freshness.worst_s"
_VISIBLE_COUNTER = "cluster.freshness.visible_events"
_EXPIRED_COUNTER = "cluster.freshness.expired"


class FreshnessTracker:
    """Virtual time from file change to search visibility, per node.

    ``pending_ttl_s`` bounds how long a stamp may wait: a change whose
    update died with a failed node (acked, never committed anywhere) would
    otherwise sit in the pending map forever.  Re-homed updates need no
    special casing — a failed-over file that gets re-indexed commits on
    its new node and resolves the *original* stamp (earliest-wins), so the
    recorded staleness honestly spans the outage.  Only changes that never
    become visible anywhere expire, counted under
    ``cluster.freshness.expired``.  ``None`` disables expiry.
    """

    enabled = True

    def __init__(self, registry: "MetricsRegistry",
                 max_pending: int = DEFAULT_MAX_PENDING,
                 pending_ttl_s: Optional[float] = DEFAULT_PENDING_TTL_S) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be positive: {max_pending}")
        if pending_ttl_s is not None and pending_ttl_s <= 0:
            raise ValueError(f"pending_ttl_s must be positive: {pending_ttl_s}")
        self.registry = registry
        self.max_pending = max_pending
        self.pending_ttl_s = pending_ttl_s
        self._pending: "OrderedDict[int, float]" = OrderedDict()
        self.dropped = 0
        self.expired = 0
        # Instruments looked up on first use and kept (the registry never
        # drops one): node -> its staleness histogram; the worst gauge;
        # the visible counter.
        self._staleness: Dict[str, "Histogram"] = {}
        self._worst: Optional["Gauge"] = None
        self._visible: Optional["Counter"] = None

    # -- producer side -------------------------------------------------------

    def stamp(self, file_id: int, t: float) -> None:
        """A file changed at virtual time ``t``.

        The earliest stamp wins: a file re-written while its first change
        is still invisible stays accountable to the first change.
        """
        if file_id in self._pending:
            return
        while len(self._pending) >= self.max_pending:
            self._pending.popitem(last=False)
            self.dropped += 1
        self._pending[file_id] = t

    def visible(self, node: str, file_id: int, t: float) -> Optional[float]:
        """The change to ``file_id`` became search-visible on ``node``.

        Returns the observed staleness in virtual seconds, or None when
        the file carried no stamp (e.g. an update that predates enabling
        the tracker).
        """
        t0 = self._pending.pop(file_id, None)
        if t0 is None:
            return None
        staleness = max(0.0, t - t0)
        histogram = self._staleness.get(node)
        if histogram is None:
            histogram = self._staleness[node] = self.registry.histogram(
                f"cluster.{node}{_STALENESS_SUFFIX}", unit="s")
        histogram.observe(staleness)
        worst = self._worst
        if worst is None:
            worst = self._worst = self.registry.gauge(_WORST_GAUGE)
            self._visible = self.registry.counter(_VISIBLE_COUNTER)
        if staleness > worst.value:
            worst.set(staleness)
        self._visible.inc()
        return staleness

    def forget(self, file_id: int) -> None:
        """Drop a pending stamp (the file was unlinked before indexing)."""
        self._pending.pop(file_id, None)

    def expire(self, now: float) -> int:
        """Drop pending stamps older than ``pending_ttl_s``.

        Called periodically by the service loop; returns how many stamps
        expired.  The pending map is insertion-ordered and stamps are
        monotone in time, so expiry scans only the stale prefix.
        """
        if self.pending_ttl_s is None:
            return 0
        expired = 0
        while self._pending:
            file_id = next(iter(self._pending))
            if now - self._pending[file_id] <= self.pending_ttl_s:
                break
            del self._pending[file_id]
            expired += 1
        if expired:
            self.expired += expired
            self.registry.counter(_EXPIRED_COUNTER).inc(expired)
        return expired

    # -- reading -------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Changes stamped but not yet search-visible."""
        return len(self._pending)

    def nodes(self) -> List[str]:
        """Every node with at least one staleness observation, sorted."""
        out = []
        for name, _ in self.registry.items():
            if name.endswith(_STALENESS_SUFFIX):
                out.append(name[len("cluster."):-len(_STALENESS_SUFFIX)])
        return sorted(out)

    def worst_s(self) -> float:
        """The worst-case freshness bound observed so far (seconds)."""
        if _WORST_GAUGE not in self.registry:
            return 0.0
        return float(self.registry.value(_WORST_GAUGE))

    def staleness_values(self, node: str) -> List[float]:
        """The retained staleness sample for one node, sorted — the
        empirical CDF Figure 1's recall story can be retold as."""
        name = f"cluster.{node}{_STALENESS_SUFFIX}"
        if name not in self.registry:
            return []
        return self.registry.find(name)[name].reservoir_values()

    def summary(self) -> Dict[str, Any]:
        """JSON-ready digest: per-node histogram summaries plus the
        worst-case gauge and pending backlog."""
        nodes = {}
        for node in self.nodes():
            name = f"cluster.{node}{_STALENESS_SUFFIX}"
            nodes[node] = self.registry.value(name)
        return {
            "worst_s": self.worst_s(),
            "pending": self.pending,
            "dropped": self.dropped,
            "expired": self.expired,
            "nodes": nodes,
        }


class NullFreshness:
    """The disabled tracker: every operation is a no-op."""

    enabled = False

    def stamp(self, file_id: int, t: float) -> None:
        pass

    def visible(self, node: str, file_id: int, t: float) -> None:
        return None

    def forget(self, file_id: int) -> None:
        pass

    def expire(self, now: float) -> int:
        return 0

    @property
    def pending(self) -> int:
        return 0

    def nodes(self) -> List[str]:
        return []

    def worst_s(self) -> float:
        return 0.0

    def staleness_values(self, node: str) -> List[float]:
        return []

    def summary(self) -> Dict[str, Any]:
        return {}


NULL_FRESHNESS = NullFreshness()
