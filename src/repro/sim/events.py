"""A small discrete-event loop.

Used where the paper has genuinely asynchronous background activity: the
Spotlight-like crawler's periodic re-index passes, Propeller's 5-second
index-cache timeout, heartbeats, and background ACG splits.  Timers fire in
timestamp order; running the loop advances the shared clock to each firing.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Tuple

from repro.errors import SimulationError
from repro.sim.clock import SimClock

Action = Callable[[], Any]


class EventLoop:
    """Timestamp-ordered one-shot timers over a :class:`SimClock`."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: List[Tuple[float, int, Action]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def schedule_at(self, timestamp: float, action: Action) -> None:
        """Run ``action`` when virtual time reaches ``timestamp``."""
        if timestamp < self.clock.now():
            raise SimulationError(
                f"cannot schedule in the past: {timestamp} < {self.clock.now()}"
            )
        heapq.heappush(self._heap, (timestamp, next(self._seq), action))

    def schedule_after(self, delay: float, action: Action) -> None:
        """Run ``action`` after ``delay`` virtual seconds."""
        self.schedule_at(self.clock.now() + delay, action)

    def run_due(self) -> int:
        """Fire every timer whose deadline has already passed; return count.

        Does not advance the clock — callers use this to let background
        work catch up after foreground operations charged time.
        """
        fired = 0
        while self._heap and self._heap[0][0] <= self.clock.now():
            _, _, action = heapq.heappop(self._heap)
            action()
            fired += 1
        return fired

    def run_until(self, timestamp: float) -> int:
        """Advance the clock to ``timestamp``, firing timers in order."""
        if timestamp < self.clock.now():
            raise SimulationError("run_until target is in the past")
        fired = 0
        while self._heap and self._heap[0][0] <= timestamp:
            deadline, _, action = heapq.heappop(self._heap)
            if deadline > self.clock.now():
                self.clock.advance_to(deadline)
            action()
            fired += 1
        # An action may itself have charged time past the target; never
        # move backwards.
        if timestamp > self.clock.now():
            self.clock.advance_to(timestamp)
        return fired


class PeriodicTask:
    """Re-arms itself on the loop every ``period`` seconds until cancelled."""

    def __init__(self, loop: EventLoop, period: float, action: Action) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive: {period}")
        self.loop = loop
        self.period = period
        self.action = action
        self._cancelled = False
        self._arm()

    def _arm(self) -> None:
        self.loop.schedule_after(self.period, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.action()
        self._arm()

    def cancel(self) -> None:
        """Stop re-arming; pending firings become no-ops."""
        self._cancelled = True
