"""Continuous telemetry: virtual-clock time series.

A :class:`TimelineRecorder` samples a set of scalar *sources* — closures
over live state — at a configurable virtual-time interval, building one
``(t, value)`` series per source.  Sampling reads the shared clock but
never charges it, so (like the tracer) enabling a timeline cannot change
a benchmark's numbers.

The recorder is pulled, not pushed: whoever owns the simulation's time
(``PropellerService.advance``/``pump``, or a benchmark's own driver
loop) calls :meth:`TimelineRecorder.sample_if_due` whenever virtual time
may have crossed an interval boundary.  Timestamps within a series are
strictly increasing — repeated calls at one virtual instant record one
point.

:data:`NULL_TIMELINE` is the free disabled default, mirroring
:data:`~repro.obs.tracing.NULL_TRACER`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.metrics.reporting import render_series

if TYPE_CHECKING:  # annotation-only, matching repro.obs.tracing
    from repro.sim.clock import SimClock

DEFAULT_INTERVAL_S = 1.0


class TimelineRecorder:
    """Per-metric time series sampled on the virtual clock."""

    enabled = True

    def __init__(self, clock: "SimClock",
                 interval_s: float = DEFAULT_INTERVAL_S) -> None:
        if interval_s <= 0:
            raise SimulationError(f"sample interval must be positive: {interval_s}")
        self.clock = clock
        self.interval_s = interval_s
        self._sources: Dict[str, Callable[[], Any]] = {}
        self._series: Dict[str, List[Tuple[float, float]]] = {}
        self._last_t: Optional[float] = None

    # -- registration --------------------------------------------------------

    def track(self, name: str, fn: Callable[[], Any]) -> None:
        """Sample ``fn()`` (any numeric scalar) under ``name`` each tick."""
        self._sources[name] = fn
        self._series.setdefault(name, [])

    # -- sampling ------------------------------------------------------------

    def sample_if_due(self) -> bool:
        """Record one point per series if an interval has elapsed.

        Returns True when a sample was taken.  Zero virtual-clock cost.
        """
        now = self.clock.now()
        if self._last_t is not None and now < self._last_t + self.interval_s:
            return False
        return self._sample(now)

    def sample(self) -> bool:
        """Force a sample at the current instant (e.g. end of a run).

        Still refuses duplicate timestamps, keeping series strictly
        increasing in time.
        """
        return self._sample(self.clock.now())

    def _sample(self, now: float) -> bool:
        if self._last_t is not None and now <= self._last_t:
            return False
        for name, fn in self._sources.items():
            self._series[name].append((now, float(fn())))
        self._last_t = now
        return True

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        """Number of samples taken so far."""
        return max((len(points) for points in self._series.values()), default=0)

    def names(self) -> List[str]:
        """Every tracked series name, sorted."""
        return sorted(self._series)

    def series(self, name: str) -> List[Tuple[float, float]]:
        """A copy of one series' ``(t, value)`` points."""
        if name not in self._series:
            raise SimulationError(f"unknown timeline series: {name}")
        return list(self._series[name])

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: interval plus name → ``[[t, value], ...]``."""
        return {
            "interval_s": self.interval_s,
            "series": {name: [[t, v] for t, v in points]
                       for name, points in sorted(self._series.items())},
        }

    def render(self, title: str = "timeline", every: int = 1) -> str:
        """All series as aligned fixed-width columns (``every`` thins
        long series for display)."""
        blocks = [title] if title else []
        for name in self.names():
            points = self._series[name][::max(1, every)]
            blocks.append(render_series(name, points, "t (s)", name))
        return "\n\n".join(blocks)


class NullTimeline:
    """The disabled timeline: every operation is a no-op.

    Instrumented drivers call the same methods either way, so flipping a
    deployment between recorded and unrecorded changes nothing about the
    simulated costs.
    """

    enabled = False
    interval_s = 0.0

    def track(self, name: str, fn: Callable[[], Any]) -> None:
        pass

    def sample_if_due(self) -> bool:
        return False

    def sample(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def names(self) -> List[str]:
        return []

    def series(self, name: str) -> List[Tuple[float, float]]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        return {"interval_s": 0.0, "series": {}}

    def render(self, title: str = "timeline", every: int = 1) -> str:
        return ""


NULL_TIMELINE = NullTimeline()
