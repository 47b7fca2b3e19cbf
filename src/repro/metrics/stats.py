"""Time-series recording."""

from __future__ import annotations

from typing import List, Tuple


class TimeSeries:
    """(timestamp, value) pairs, e.g. recall over execution time."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._points: List[Tuple[float, float]] = []

    def add(self, t: float, value: float) -> None:
        """Record one sample."""
        self._points.append((t, value))

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> List[Tuple[float, float]]:
        """A copy of all (timestamp, value) points."""
        return list(self._points)

    def values(self) -> List[float]:
        """Just the values, in insertion order."""
        return [v for _, v in self._points]

    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        values = self.values()
        return sum(values) / len(values) if values else 0.0

    def minimum(self) -> float:
        """Smallest sample (0.0 when empty)."""
        values = self.values()
        return min(values) if values else 0.0

    def final(self) -> float:
        """The last recorded value (0.0 when empty)."""
        return self._points[-1][1] if self._points else 0.0
