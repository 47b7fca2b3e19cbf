"""Seed-driven fault injection.

One :class:`FaultInjector` instance attaches to the points failures enter
the simulation:

* ``RpcNetwork.faults`` — per-message fates (:meth:`message_fate`
  decides drop / delay / duplicate) plus per-node straggler latency
  (:meth:`extra_latency_s`);
* ``DiskDevice.faults`` — injected medium errors on reads
  (:meth:`disk_read_fails`).

Every decision is drawn from one seeded :class:`random.Random`, so a
schedule replayed against the same seed makes byte-identical choices —
the determinism contract ``repro chaos`` verifies by running every
schedule twice.  All rates default to zero: an attached but quiescent
injector changes nothing.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.obs.journal import NULL_JOURNAL
from repro.obs.metrics import MetricsRegistry

_DROPPED = "chaos.messages_dropped"
_DELAYED = "chaos.messages_delayed"
_DUPLICATED = "chaos.messages_duplicated"
_DISK_ERRORS = "chaos.disk_errors"
_OBJECT_ERRORS = "chaos.object_errors"
_SLOW_HYDRATIONS = "chaos.slow_hydrations"


class FaultInjector:
    """Decides, message by message and read by read, what goes wrong.

    ``immune_targets`` names RPC targets that never suffer *random*
    message faults — chaos schedules exempt the Master(s) so the random
    fault model matches the paper's (Index Nodes fail; the metadata
    server is assumed reachable).  The exemption is explicit plumbing,
    not a hardcoded name: a schedule that opts into master faults simply
    passes a different set.  Straggler latency still applies to immune
    targets (a slow master is a performance fault, not a partition), and
    so do *targeted* faults — armed one-shot drops and isolation — which
    exist precisely to fail a specific endpoint on purpose.
    """

    def __init__(self, seed: int = 0,
                 registry: Optional[MetricsRegistry] = None,
                 immune_targets: Optional[frozenset] = None,
                 journal=NULL_JOURNAL) -> None:
        self.rng = random.Random(seed)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.immune_targets = frozenset(immune_targets or ())
        # Every configuration change journals a chaos.fault_injected
        # event so a chaos run's journal shows what was done to the
        # cluster next to what the cluster did about it.
        self.journal = journal
        self.drop_rate = 0.0
        self.duplicate_rate = 0.0
        self.delay_rate = 0.0
        self.delay_s = 0.05
        self.disk_error_rate = 0.0
        # Cold-tier (object store) faults: GET error probability and
        # slow-hydration stretch (probability + extra seconds).  All
        # default off, and the decision points consult no RNG while off,
        # so non-tiered schedules keep their byte-identical streams.
        self.object_error_rate = 0.0
        self.hydration_delay_rate = 0.0
        self.hydration_extra_s = 0.0
        self.slow_nodes: Dict[str, float] = {}
        # Per-node probability the straggler tax applies to one message
        # (absent = always).  Intermittent stragglers are the tail-latency
        # shape hedged reads exist for.
        self.slow_probability: Dict[str, float] = {}
        # Armed one-shot fates: (target, method) → how many of the next
        # matching messages meet the armed fate.  Unlike the random
        # rates these hit immune targets too — they exist so tests can
        # fail one *specific* protocol step (e.g. the finish_migration
        # RPC) deterministically.
        self.armed: Dict[Tuple[str, str], int] = {}
        # Isolated targets: every message to them drops, immunity
        # notwithstanding — a network partition of one endpoint.  Checked
        # without consuming a draw so arming/clearing isolation never
        # desynchronizes the RNG stream.
        self.isolated: set = set()
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.disk_errors = 0
        self.object_errors = 0
        self.slow_hydrations = 0

    # -- configuration (schedule steps call these) ---------------------------

    def set_message_faults(self, drop: float = 0.0, duplicate: float = 0.0,
                           delay: float = 0.0, delay_s: float = 0.05) -> None:
        """Set the per-message fault probabilities (all in [0, 1))."""
        self.drop_rate = drop
        self.duplicate_rate = duplicate
        self.delay_rate = delay
        self.delay_s = delay_s
        if drop or duplicate or delay:
            self.journal.emit("chaos.fault_injected", fault="message_faults",
                              drop=drop, duplicate=duplicate, delay=delay,
                              delay_s=delay_s)

    def clear_message_faults(self) -> None:
        """Back to a healthy network (stragglers and armed fates too)."""
        self.set_message_faults()
        self.slow_nodes.clear()
        self.slow_probability.clear()
        self.armed.clear()
        # Isolation is deliberately *not* cleared here: a partitioned
        # endpoint stays partitioned until the isolation fault itself is
        # lifted (clear_isolation), exactly like a crashed node stays
        # down across a clear_faults step.

    def slow_node(self, node: str, extra_s: float,
                  probability: float = 1.0) -> None:
        """Make one node a straggler: messages to it pay ``extra_s``.

        ``probability`` < 1 makes the straggle intermittent — each
        message to the node independently draws whether it pays the tax,
        which is the classic p99-ruining tail shape hedged search legs
        are built to absorb."""
        self.slow_nodes[node] = extra_s
        if probability < 1.0:
            self.slow_probability[node] = probability
        else:
            self.slow_probability.pop(node, None)
        self.journal.emit("chaos.fault_injected", node=node,
                          fault="straggler", extra_s=extra_s,
                          probability=probability)

    def set_disk_error_rate(self, rate: float) -> None:
        """Probability an attached disk's read hits a medium error."""
        self.disk_error_rate = rate
        if rate:
            self.journal.emit("chaos.fault_injected", fault="disk_errors",
                              rate=rate)

    def set_object_error_rate(self, rate: float) -> None:
        """Probability an attached object store's GET fails."""
        self.object_error_rate = rate
        if rate:
            self.journal.emit("chaos.fault_injected", fault="object_errors",
                              rate=rate)

    def set_hydration_delay(self, extra_s: float, probability: float = 1.0) -> None:
        """Stretch object-store GETs by ``extra_s`` with ``probability``.

        The slow-hydration fault: a congested cold tier serving segment
        reads at tail latency rather than failing them outright."""
        self.hydration_extra_s = extra_s
        self.hydration_delay_rate = probability if extra_s > 0.0 else 0.0
        if extra_s > 0.0:
            self.journal.emit("chaos.fault_injected", fault="slow_hydration",
                              extra_s=extra_s, probability=probability)

    def clear_object_faults(self) -> None:
        """Back to a healthy cold tier."""
        self.object_error_rate = 0.0
        self.hydration_delay_rate = 0.0
        self.hydration_extra_s = 0.0

    def arm_method_fault(self, target: str, method: str, count: int = 1) -> None:
        """Drop the next ``count`` messages of one (target, method) pair.

        Deterministic surgical injection for protocol tests: the armed
        fate fires regardless of the random rates and of immunity."""
        self.armed[(target, method)] = self.armed.get((target, method), 0) + count
        self.journal.emit("chaos.fault_injected", node=target,
                          fault="armed_drop", method=method, count=count)

    def isolate(self, target: str) -> None:
        """Partition one endpoint off the network: every message to it
        drops until :meth:`clear_isolation`.  Overrides immunity — this
        is the targeted fault master-isolation chaos uses."""
        self.isolated.add(target)
        self.journal.emit("chaos.fault_injected", node=target,
                          fault="isolation")

    def clear_isolation(self, target: Optional[str] = None) -> None:
        """Heal one isolation (or all of them when no target given)."""
        if target is None:
            self.isolated.clear()
        else:
            self.isolated.discard(target)

    @property
    def quiescent(self) -> bool:
        """True when no fault of any kind is currently armed."""
        return (self.drop_rate == 0.0 and self.duplicate_rate == 0.0
                and self.delay_rate == 0.0 and self.disk_error_rate == 0.0
                and self.object_error_rate == 0.0
                and self.hydration_delay_rate == 0.0
                and not self.slow_nodes and not self.armed
                and not self.isolated)

    # -- decision points (the instrumented layers call these) ----------------

    def _count(self, name: str) -> None:
        self.registry.counter(name).inc()

    def message_fate(self, target: str, method: str) -> str:
        """One message's fate: ``ok`` / ``drop`` / ``delay`` / ``duplicate``.

        Exactly one draw per message keeps the RNG stream aligned across
        replays regardless of which rates are armed.
        """
        draw = self.rng.random()
        key = (target, method)
        if self.armed.get(key, 0) > 0:
            self.armed[key] -= 1
            if not self.armed[key]:
                del self.armed[key]
            self.dropped += 1
            self._count(_DROPPED)
            return "drop"
        if target in self.isolated:
            self.dropped += 1
            self._count(_DROPPED)
            return "drop"
        if target in self.immune_targets:
            return "ok"
        if draw < self.drop_rate:
            self.dropped += 1
            self._count(_DROPPED)
            return "drop"
        draw -= self.drop_rate
        if draw < self.duplicate_rate:
            self.duplicated += 1
            self._count(_DUPLICATED)
            return "duplicate"
        draw -= self.duplicate_rate
        if draw < self.delay_rate:
            self.delayed += 1
            self._count(_DELAYED)
            return "delay"
        return "ok"

    def extra_latency_s(self, node: str) -> float:
        """Straggler tax for one message to ``node`` (0 when healthy).

        The RNG is consulted only for *intermittent* stragglers
        (``probability`` < 1), so schedules that never use them draw the
        byte-identical random stream they always did."""
        extra = self.slow_nodes.get(node, 0.0)
        if not extra:
            return 0.0
        probability = self.slow_probability.get(node)
        if probability is not None and self.rng.random() >= probability:
            return 0.0
        return extra

    def disk_read_fails(self) -> bool:
        """Whether the next disk read hits an injected medium error."""
        if self.disk_error_rate <= 0.0:
            return False
        if self.rng.random() < self.disk_error_rate:
            self.disk_errors += 1
            self._count(_DISK_ERRORS)
            return True
        return False

    def object_read_fails(self) -> bool:
        """Whether the next object-store GET fails (no draw when off)."""
        if self.object_error_rate <= 0.0:
            return False
        if self.rng.random() < self.object_error_rate:
            self.object_errors += 1
            self._count(_OBJECT_ERRORS)
            return True
        return False

    def hydration_delay_s(self) -> float:
        """Extra seconds the next object-store GET pays (0 when healthy).

        Consults the RNG only for intermittent delays (probability < 1),
        mirroring :meth:`extra_latency_s`."""
        if self.hydration_delay_rate <= 0.0 or self.hydration_extra_s <= 0.0:
            return 0.0
        if (self.hydration_delay_rate < 1.0
                and self.rng.random() >= self.hydration_delay_rate):
            return 0.0
        self.slow_hydrations += 1
        self._count(_SLOW_HYDRATIONS)
        return self.hydration_extra_s

    def summary(self) -> Dict[str, int]:
        """JSON-ready injection totals."""
        return {
            "dropped": self.dropped,
            "delayed": self.delayed,
            "duplicated": self.duplicated,
            "disk_errors": self.disk_errors,
            "object_errors": self.object_errors,
            "slow_hydrations": self.slow_hydrations,
        }
