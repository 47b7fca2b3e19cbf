"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloSpec` names an objective over one registry instrument
(wildcards allowed): "no more than ``budget`` of search legs slower than
``target``", "replication lag stays under ``target`` records".  The
:class:`SloTracker` samples every spec at a virtual-time interval and
keeps, per spec, a sliding window of cumulative (total, bad) event
counts:

* **histogram-backed specs** count *events*: an observation is bad when
  it exceeded ``target`` (read from the histogram's exact bucket counts
  — the target is effectively rounded up to the covering bucket bound,
  a conservative under-count);
* **gauge-backed specs** count *samples*: a sample is bad when the worst
  matching gauge exceeded ``target`` at sampling time.

Alerting is the SRE multi-window burn-rate rule adapted to simulated
time: with ``bad_fraction`` the share of bad events in a window, the
*burn rate* is ``bad_fraction / budget`` (1.0 = consuming the error
budget exactly as fast as allowed).  A spec **breaches** when the fast
window burns at ≥ ``fast_burn`` *and* the slow window burns at ≥ 1.0 —
fast spikes need sustained evidence, slow drifts need a current spike —
and **recovers** when the fast window is clean (zero bad events), the
pragmatic choice for post-fault convergence on a virtual clock.  Both
transitions emit ``slo.breach`` / ``slo.recover`` into the event
journal, wrapped in a short ``slo_alert`` span so the events correlate
to a trace span id like every other journal entry.

Sampling draws no randomness and charges zero simulated time, so an
always-on tracker never perturbs benchmarks or chaos determinism.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.obs.journal import NULL_JOURNAL
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import NULL_TRACER

if TYPE_CHECKING:
    from repro.sim.clock import SimClock

DEFAULT_INTERVAL_S = 1.0


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over one (possibly wildcard) metric.

    ``metric`` may contain ``*`` wildcards (``cluster.*.staleness_s``
    matches every node's freshness histogram); when several instruments
    match, their event counts are summed (histograms) or the worst value
    is taken (gauges).
    """

    name: str              # short id, e.g. "search_latency"
    metric: str            # instrument name or fnmatch pattern
    target: float          # one event/sample must stay at or under this
    budget: float = 0.01   # tolerated bad fraction (error budget)
    fast_window_s: float = 30.0
    slow_window_s: float = 240.0
    fast_burn: float = 2.0  # fast-window burn-rate threshold for breach
    unit: str = "s"
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "target": self.target,
            "budget": self.budget,
            "fast_window_s": self.fast_window_s,
            "slow_window_s": self.slow_window_s,
            "fast_burn": self.fast_burn,
            "unit": self.unit,
            "description": self.description,
        }


def default_specs() -> Tuple[SloSpec, ...]:
    """The deployment-wide defaults: generous targets a healthy cluster
    never breaches (the CI smoke gate asserts exactly that), tight
    enough that a crashed primary or a straggler storm shows up."""
    return (
        SloSpec("search_latency", "cluster.client.search_latency_s",
                target=5.0, budget=0.01,
                description="search answers within 5s simulated"),
        SloSpec("update_ack", "cluster.client.update_ack_latency_s",
                target=5.0, budget=0.01,
                description="update batches acknowledged within 5s"),
        SloSpec("freshness", "cluster.*.staleness_s",
                target=60.0, budget=0.05,
                description="change-to-search-visible within 60s (p95)"),
        SloSpec("replication_lag", "cluster.health.repl_lag_max",
                target=64.0, budget=0.10, unit="records",
                description="worst follower applied-watermark lag"),
        # The budget is deliberately generous: one standby promotion
        # (well under the lease timeout) must never breach a short run,
        # while a Master staying dark — no standby, or promotion wedged —
        # burns through it and alerts.
        SloSpec("master_availability", "cluster.health.master_unavailable",
                target=0.0, budget=0.25, unit="bool",
                description="an acting Master is up and answering"),
    )


class _SpecState:
    """Sliding window + breach state machine for one spec."""

    __slots__ = ("spec", "window", "breached", "breaches",
                 "_gauge_total", "_gauge_bad", "last_observed")

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        # (t, cumulative_total, cumulative_bad) snapshots, oldest first.
        self.window: Deque[Tuple[float, int, int]] = deque()
        self.breached = False
        self.breaches = 0
        # Gauge-backed specs synthesize one event per sample.
        self._gauge_total = 0
        self._gauge_bad = 0
        self.last_observed: float = 0.0

    def burn(self, now: float, window_s: float) -> Tuple[float, int]:
        """(bad_fraction, events) over the trailing ``window_s``."""
        if not self.window:
            return 0.0, 0
        cutoff = now - window_s
        # The newest snapshot at or before the cutoff anchors the delta;
        # fall back to the oldest retained when none is old enough.
        anchor = self.window[0]
        for snap in self.window:
            if snap[0] <= cutoff:
                anchor = snap
            else:
                break
        head = self.window[-1]
        total = head[1] - anchor[1]
        bad = head[2] - anchor[2]
        if total <= 0:
            return 0.0, 0
        return bad / total, total


def _over_count(hist: Histogram, target: float) -> int:
    """Observations strictly above the bucket bound covering ``target``.

    Exact when the target sits on a bucket boundary; otherwise a
    conservative under-count (events in (target, bound] are not blamed).
    """
    j = bisect.bisect_left(hist.buckets, target)
    return sum(hist.bucket_counts[j + 1:])


class SloTracker:
    """Evaluates every spec on a sampling interval; emits breach events.

    ``tracer`` is an attribute so the service can re-point it whenever
    tracing toggles.
    """

    def __init__(self, clock: "SimClock", registry: MetricsRegistry,
                 journal=NULL_JOURNAL,
                 specs: Optional[Tuple[SloSpec, ...]] = None,
                 interval_s: float = DEFAULT_INTERVAL_S,
                 tracer=NULL_TRACER) -> None:
        self.clock = clock
        self.registry = registry
        self.journal = journal
        self.tracer = tracer
        self.interval_s = interval_s
        self._states: Dict[str, _SpecState] = {}
        for spec in (specs if specs is not None else default_specs()):
            self.add_spec(spec)
        self._last_sample: Optional[float] = None

    def add_spec(self, spec: SloSpec) -> None:
        if spec.name in self._states:
            raise ValueError(f"duplicate SLO spec: {spec.name}")
        self._states[spec.name] = _SpecState(spec)

    def specs(self) -> List[SloSpec]:
        return [self._states[name].spec for name in sorted(self._states)]

    # -- sampling -------------------------------------------------------------

    def sample_if_due(self) -> None:
        """Evaluate every spec if the interval elapsed (pump/advance
        call this; free when nothing is due)."""
        now = self.clock.now()
        if self._last_sample is not None and \
                now - self._last_sample < self.interval_s:
            return
        self.sample()

    def _matching(self, pattern: str) -> List[Any]:
        if "*" not in pattern and "?" not in pattern:
            inst = self.registry._instruments.get(pattern)
            return [inst] if inst is not None else []
        return [inst for name, inst in self.registry.items()
                if fnmatchcase(name, pattern)]

    def _observe(self, state: _SpecState) -> Tuple[int, int]:
        """Cumulative (total, bad) event counts for one spec right now."""
        spec = state.spec
        instruments = self._matching(spec.metric)
        hists = [i for i in instruments if isinstance(i, Histogram)]
        if hists:
            total = sum(h.count for h in hists)
            bad = sum(_over_count(h, spec.target) for h in hists)
            state.last_observed = max((h.maximum for h in hists if h.count),
                                      default=0.0)
            return total, bad
        worst = 0.0
        seen = False
        for inst in instruments:
            try:
                value = float(inst.value)
            except (TypeError, ValueError):
                continue
            worst = value if not seen else max(worst, value)
            seen = True
        if seen:
            state._gauge_total += 1
            if worst > spec.target:
                state._gauge_bad += 1
            state.last_observed = worst
        return state._gauge_total, state._gauge_bad

    def sample(self) -> None:
        """One evaluation round over every spec (forced, interval aside)."""
        now = self.clock.now()
        self._last_sample = now
        for name in sorted(self._states):
            state = self._states[name]
            spec = state.spec
            total, bad = self._observe(state)
            if state.window and state.window[-1][0] == now:
                state.window[-1] = (now, total, bad)
            else:
                state.window.append((now, total, bad))
            # Trim past the slow window, keeping one pre-boundary anchor.
            cutoff = now - spec.slow_window_s
            while len(state.window) >= 2 and state.window[1][0] <= cutoff:
                state.window.popleft()
            self._alert(state, now)

    def _alert(self, state: _SpecState, now: float) -> None:
        spec = state.spec
        fast_frac, fast_n = state.burn(now, spec.fast_window_s)
        slow_frac, _slow_n = state.burn(now, spec.slow_window_s)
        fast_rate = fast_frac / spec.budget if spec.budget > 0 else 0.0
        slow_rate = slow_frac / spec.budget if spec.budget > 0 else 0.0
        if not state.breached:
            if fast_n > 0 and fast_rate >= spec.fast_burn and slow_rate >= 1.0:
                state.breached = True
                state.breaches += 1
                self.registry.counter(f"slo.{spec.name}.breaches").inc()
                self._emit("slo.breach", state, fast_rate, slow_rate)
        else:
            if fast_frac == 0.0:
                state.breached = False
                self._emit("slo.recover", state, fast_rate, slow_rate)

    def _emit(self, type: str, state: _SpecState,
              fast_rate: float, slow_rate: float) -> None:
        spec = state.spec
        # A short span of our own so breach/recover events carry a trace
        # span id even when sampling fires outside any request.
        with self.tracer.span("slo_alert", slo=spec.name, kind=type):
            self.journal.emit(
                type, slo=spec.name, metric=spec.metric,
                target=spec.target, budget=spec.budget,
                fast_burn_rate=round(fast_rate, 6),
                slow_burn_rate=round(slow_rate, 6),
                observed=round(state.last_observed, 9))

    # -- readouts -------------------------------------------------------------

    def breached(self) -> List[str]:
        """Names of currently-breached SLOs, sorted."""
        return [name for name in sorted(self._states)
                if self._states[name].breached]

    def breach_count(self) -> int:
        """Total breach transitions across every spec."""
        return sum(s.breaches for s in self._states.values())

    def summary(self) -> Dict[str, Any]:
        """JSON-ready per-spec state: target, observed window burn rates,
        breach count — what bench artifacts embed and ``repro status``
        renders."""
        now = self.clock.now()
        specs: Dict[str, Any] = {}
        for name in sorted(self._states):
            state = self._states[name]
            spec = state.spec
            fast_frac, fast_n = state.burn(now, spec.fast_window_s)
            slow_frac, slow_n = state.burn(now, spec.slow_window_s)
            budget = spec.budget if spec.budget > 0 else 1.0
            specs[name] = {
                "target": spec.target,
                "unit": spec.unit,
                "budget": spec.budget,
                "metric": spec.metric,
                "observed": round(state.last_observed, 9),
                "fast_bad_fraction": round(fast_frac, 6),
                "slow_bad_fraction": round(slow_frac, 6),
                "fast_burn_rate": round(fast_frac / budget, 6),
                "slow_burn_rate": round(slow_frac / budget, 6),
                "window_events": max(fast_n, slow_n),
                "breached": state.breached,
                "breaches": state.breaches,
            }
        return {"specs": specs, "breaches": self.breach_count(),
                "breached_now": self.breached()}
