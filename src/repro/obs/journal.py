"""The cluster event journal: one causally-ordered record of what happened.

Failovers, promotions, migrations, epoch bumps, fence rejections, node
lifecycle, injected faults, and SLO breaches were scattered across
ad-hoc lists (``FailoverEvent``/``MigrationEvent``), per-node counters,
and nothing at all.  The :class:`EventJournal` unifies them: every
subsystem emits typed structured events into one bounded, virtual-clock
-ordered journal, each event carrying the source node, the partition
(ACG) it concerns, the replication and routing epochs in force, and the
id of the trace span that was open when it happened — so a fence on an
Index Node can be correlated to the failover span on the Master that
caused it.

Event taxonomy (the ``type`` field, dotted and prefix-queryable):

* ``failover.promoted`` / ``failover.adopted`` / ``failover.deferred``
  — one per failover round, payload = the ``FailoverEvent`` record;
* ``migration.start`` / ``migration.done`` / ``migration.aborted`` /
  ``migration.finish_deferred`` — online-migration lifecycle, payload
  on ``start`` = the ``MigrationEvent`` record (mutated in place as the
  protocol progresses, exactly as the old ``migration_log`` was);
* ``route.epoch_bump`` — a partition's routing changed;
* ``repl.epoch_bump`` — a replica set entered a new replication epoch
  (membership change, log-generation restart, or promotion fence);
* ``repl.fence`` — a node rejected a stale-epoch stream or install;
* ``repl.depose`` — a fenced primary stopped replicating a partition;
* ``repl.promote_repeat`` — a node answered a re-delivered
  ``promote_replica`` for a partition that promotion already made its
  own (at-least-once delivery; no second promotion happened);
* ``master.promote`` / ``master.depose`` / ``master.fence`` /
  ``master.restart`` — control-plane failover: a warm standby took over
  with a term bump, a deposed Master self-fenced after an Index Node
  rejected its term, a node rejected a stale-term Master RPC, or a
  crashed Master replayed its meta-WAL back into service;
* ``node.crash`` / ``node.restart`` / ``node.rejoin`` — Index Node
  lifecycle;
* ``search.degraded`` / ``search.partial`` — a client answer that
  could not cover every partition;
* ``chaos.fault_injected`` — a fault-injection configuration change;
* ``slo.breach`` / ``slo.recover`` — burn-rate alerting transitions
  (see :mod:`repro.obs.slo`);
* ``health.degraded`` / ``health.critical`` / ``health.healthy`` —
  cluster health-verdict transitions (see :mod:`repro.obs.health`).

Like every ``repro.obs`` layer the journal charges **zero simulated
time** and draws no randomness, so an always-on journal cannot change a
benchmark's numbers or break the chaos determinism contract.  The
journal is bounded: past ``maxlen`` events the oldest are evicted, the
``truncated`` counter records how many, and the cumulative per-type
counts survive eviction (so "how many fences happened" never lies).

:data:`NULL_JOURNAL` is the inert default components hold before a
deployment wires the real journal in — the same null-object pattern as
:data:`~repro.obs.tracing.NULL_TRACER`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Deque, Dict, Iterator, List,
                    Optional)

from repro.obs.tracing import NULL_TRACER

if TYPE_CHECKING:  # annotation-only: avoid a runtime cycle via sim.disk
    from repro.sim.clock import SimClock

# Generous default: chaos runs produce a few hundred events, so slicing
# views (the invariant checker reads failover_log[seen:]) never see an
# eviction in practice, while a pathological event storm stays bounded.
DEFAULT_MAX_EVENTS = 8192


def _json_safe(value: Any) -> Any:
    """Coerce one detail value into a JSON-serializable shape."""
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class JournalEvent:
    """One typed, timestamped cluster event.

    ``detail`` holds JSON-safe scalars specific to the event type;
    ``payload`` optionally holds the *live* record object behind the
    event (a ``FailoverEvent``/``MigrationEvent``), kept out of the
    serialized form — the legacy log views read it, and in-place
    mutations (a migration outcome flipping to ``done``) stay visible.
    """

    seq: int
    t: float
    type: str
    node: str = ""
    acg_id: Optional[int] = None
    repl_epoch: Optional[int] = None
    route_epoch: Optional[int] = None
    span_id: Optional[int] = None
    detail: Dict[str, Any] = field(default_factory=dict)
    payload: Any = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the payload object is deliberately omitted)."""
        out: Dict[str, Any] = {"seq": self.seq, "t": self.t,
                               "type": self.type}
        if self.node:
            out["node"] = self.node
        if self.acg_id is not None:
            out["acg_id"] = self.acg_id
        if self.repl_epoch is not None:
            out["repl_epoch"] = self.repl_epoch
        if self.route_epoch is not None:
            out["route_epoch"] = self.route_epoch
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.detail:
            out["detail"] = {k: _json_safe(v)
                             for k, v in sorted(self.detail.items())}
        return out

    def matches(self, type: Optional[str] = None,
                since: Optional[float] = None,
                acg_id: Optional[int] = None,
                node: Optional[str] = None) -> bool:
        """Filter predicate shared by :meth:`EventJournal.events` and the
        CLI's ``repro events``.  ``type`` matches exactly or as a dotted
        prefix (``"repl"`` matches ``repl.fence``)."""
        if type is not None and self.type != type and \
                not self.type.startswith(type.rstrip(".") + "."):
            return False
        if since is not None and self.t < since:
            return False
        if acg_id is not None and self.acg_id != acg_id:
            return False
        if node is not None and self.node != node:
            return False
        return True


class EventJournal:
    """Bounded, clock-ordered journal of :class:`JournalEvent` records.

    ``tracer`` is read at emit time for the active span id; a deployment
    swaps the real tracer in via ``enable_tracing`` and the journal picks
    it up (the service re-points :attr:`tracer` when tracing toggles).
    """

    enabled = True

    def __init__(self, clock: "SimClock",
                 maxlen: int = DEFAULT_MAX_EVENTS,
                 tracer=NULL_TRACER) -> None:
        self.clock = clock
        self.tracer = tracer
        self._events: Deque[JournalEvent] = deque(maxlen=maxlen)
        self._seq = 0
        # Cumulative per-type counts: eviction must never make "how many
        # fences happened" under-report.
        self._counts: Dict[str, int] = {}
        self.truncated = 0

    # -- emission -------------------------------------------------------------

    def emit(self, type: str, node: str = "",
             acg_id: Optional[int] = None,
             repl_epoch: Optional[int] = None,
             route_epoch: Optional[int] = None,
             payload: Any = None, **detail: Any) -> JournalEvent:
        """Record one event at the current virtual time.

        The active trace span (if any) stamps its id onto the event —
        in the single-threaded simulation an RPC handler runs inside the
        caller's open span, so a fence raised while the Master's
        ``failover`` span is open carries that span's id.
        """
        self._seq += 1
        current = self.tracer.current
        event = JournalEvent(
            seq=self._seq, t=self.clock.now(), type=type, node=node,
            acg_id=acg_id, repl_epoch=repl_epoch, route_epoch=route_epoch,
            span_id=getattr(current, "span_id", None),
            detail=detail, payload=payload)
        if len(self._events) == self._events.maxlen:
            self.truncated += 1
        self._events.append(event)
        self._counts[type] = self._counts.get(type, 0) + 1
        return event

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[JournalEvent]:
        return iter(self._events)

    @property
    def total(self) -> int:
        """Events ever emitted (retained + evicted)."""
        return self._seq

    def events(self, type: Optional[str] = None,
               since: Optional[float] = None,
               acg_id: Optional[int] = None,
               node: Optional[str] = None) -> List[JournalEvent]:
        """Retained events matching every given filter, oldest first."""
        return [e for e in self._events
                if e.matches(type=type, since=since, acg_id=acg_id,
                             node=node)]

    def payloads(self, type: str) -> List[Any]:
        """The live payload objects behind retained events of one type
        (or dotted type prefix) — how the legacy ``failover_log`` /
        ``migration_log`` lists are served as journal views."""
        return [e.payload for e in self._events
                if e.payload is not None and e.matches(type=type)]

    def tail(self, n: int = 20) -> List[JournalEvent]:
        """The most recent ``n`` retained events, oldest first."""
        if n <= 0:
            return []
        return list(self._events)[-n:]

    def count(self, type: str) -> int:
        """Cumulative count of one type (or dotted prefix) — survives
        eviction."""
        prefix = type.rstrip(".") + "."
        return sum(n for t, n in self._counts.items()
                   if t == type or t.startswith(prefix))

    def counts(self) -> Dict[str, int]:
        """Cumulative count per exact type, sorted by type name."""
        return {t: self._counts[t] for t in sorted(self._counts)}

    def digest(self) -> Dict[str, Any]:
        """Deterministic JSON-ready summary: totals, truncation marker,
        and the cumulative per-type counts (what chaos reports and bench
        artifacts embed)."""
        return {
            "total": self.total,
            "retained": len(self._events),
            "truncated": self.truncated,
            "by_type": self.counts(),
        }

    def clear(self) -> None:
        """Drop retained events and counts (tests only)."""
        self._events.clear()
        self._counts.clear()
        self._seq = 0
        self.truncated = 0


class NullJournal:
    """The inert journal: every operation is a free no-op.

    Components default to this so constructing them standalone (tests,
    benchmarks that never read events) costs nothing; a deployment swaps
    the real journal in at wiring time.
    """

    enabled = False
    truncated = 0
    total = 0

    def emit(self, type: str, node: str = "",
             acg_id: Optional[int] = None,
             repl_epoch: Optional[int] = None,
             route_epoch: Optional[int] = None,
             payload: Any = None, **detail: Any) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[JournalEvent]:
        return iter(())

    def events(self, type: Optional[str] = None,
               since: Optional[float] = None,
               acg_id: Optional[int] = None,
               node: Optional[str] = None) -> List[JournalEvent]:
        return []

    def payloads(self, type: str) -> List[Any]:
        return []

    def tail(self, n: int = 20) -> List[JournalEvent]:
        return []

    def count(self, type: str) -> int:
        return 0

    def counts(self) -> Dict[str, int]:
        return {}

    def digest(self) -> Dict[str, Any]:
        return {"total": 0, "retained": 0, "truncated": 0, "by_type": {}}

    def clear(self) -> None:
        pass


NULL_JOURNAL = NullJournal()
