"""Metrics registry.

Components register instruments under hierarchical dotted names
(``cluster.in1.disk.reads``) so operators can snapshot a whole deployment
— or any subtree of it — in one call.  Three instrument kinds:

* :class:`Counter` — monotonically increasing event counts;
* :class:`Gauge` — point-in-time values, either set explicitly or backed
  by a callable that reads live state on every snapshot (how
  :meth:`PropellerService.stats` stays in sync without push updates);
* :class:`Histogram` — value distributions with fixed buckets for export
  plus a bounded reservoir for p50/p95/p99, so a registry never grows
  with the number of observations.

Instruments charge **zero simulated time**: they are bookkeeping about
the simulation, not part of it.
"""

from __future__ import annotations

import bisect
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

# Log-spaced latency buckets from 1 µs to 100 s — wide enough for both a
# page-cache hit (~0.2 µs lands in the underflow bucket) and a cold
# multi-second scan.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    base * 10.0 ** exp
    for exp in range(-6, 3)
    for base in (1.0, 2.5, 5.0)
)

DEFAULT_RESERVOIR = 1024
_RESERVOIR_SEED = 0x5EED


class Counter:
    """A monotonically increasing count of events."""

    kind = "counter"
    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) events."""
        if n < 0:
            raise SimulationError(f"counter {self.name} cannot decrease: {n}")
        self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value, set explicitly by its owner."""

    kind = "gauge"
    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Any = 0

    def set(self, value: Any) -> None:
        self._value = value

    @property
    def value(self) -> Any:
        return self._value


class CallableGauge:
    """A gauge backed by a zero-argument callable, read on every access.

    The natural fit for values the system already tracks (queue depths,
    resident bytes): registering a closure avoids double bookkeeping and
    can never drift from the source of truth.
    """

    kind = "gauge"
    __slots__ = ("name", "_fn")

    def __init__(self, name: str, fn: Callable[[], Any]) -> None:
        self.name = name
        self._fn = fn

    @property
    def value(self) -> Any:
        return self._fn()


class Histogram:
    """Fixed-bucket histogram plus a bounded reservoir for percentiles.

    Bucket counts are exact (good for export and rate math); percentiles
    come from a uniform reservoir sample of at most ``reservoir_size``
    observations, so memory stays bounded no matter how long a benchmark
    runs.  The reservoir RNG is seeded per-instrument, keeping simulated
    runs deterministic.  The sample is also kept in sorted order, updated
    on every observation, so a percentile read (the hedge timer reads
    one per search leg) is an index, not a sort.

    ``unit`` names what one observation measures — ``"s"`` (seconds, the
    default) renders as µs/ms/s; anything else (``"count"``, ``"bytes"``)
    renders as a plain number.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                 reservoir_size: int = DEFAULT_RESERVOIR,
                 unit: str = "s") -> None:
        if reservoir_size < 1:
            raise SimulationError(f"reservoir must hold at least 1 sample: {reservoir_size}")
        self.name = name
        self.unit = unit
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise SimulationError("histogram needs at least one bucket bound")
        # counts[i] covers (buckets[i-1], buckets[i]]; one extra overflow slot.
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self._reservoir: List[float] = []
        self._ordered: List[float] = []   # the reservoir's values, sorted
        self._reservoir_size = reservoir_size
        self._rng = random.Random(_RESERVOIR_SEED)
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot >= self._reservoir_size:
                return
            self._evict(self._reservoir[slot])
            self._reservoir[slot] = value
        bisect.insort(self._ordered, value)

    def _evict(self, value: float) -> None:
        """Drop one copy of ``value`` from the sorted sample."""
        ordered = self._ordered
        i = bisect.bisect_left(ordered, value)
        if i < len(ordered) and ordered[i] == value:
            del ordered[i]
        else:
            ordered.remove(value)   # NaN equals nothing: found by identity

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._max is not None else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the reservoir, ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100]: {p}")
        ordered = self._ordered
        if not ordered:
            return 0.0
        rank = max(1, -(-int(p * len(ordered)) // 100))  # ceil without math
        return ordered[min(rank, len(ordered)) - 1]

    @property
    def p50(self) -> float:
        """Median over the reservoir."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th percentile over the reservoir."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """99th percentile over the reservoir."""
        return self.percentile(99)

    def reservoir_values(self) -> List[float]:
        """The retained sample, sorted — enough to draw an empirical CDF."""
        return list(self._ordered)

    def summary(self) -> Dict[str, float]:
        """count/mean/min/p50/p95/p99/max in one dict (what exporters show)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


class MetricsRegistry:
    """All of a deployment's instruments, keyed by hierarchical name.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a name creates the instrument, later calls return the same object
    (so call sites never need to pre-register).  Asking for an existing
    name as a *different* kind is a bug and raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def _get_or_create(self, name: str, cls, *args, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, *args, **kwargs)
            self._instruments[name] = instrument
            return instrument
        if not isinstance(instrument, cls):
            raise SimulationError(
                f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the (settable) gauge called ``name``."""
        return self._get_or_create(name, Gauge)

    def gauge_fn(self, name: str, fn: Callable[[], Any]) -> CallableGauge:
        """Register (or replace) a callable-backed gauge.

        Re-registering is allowed on purpose: when a component is rebuilt
        (failover, restore) the fresh closure must win over the stale one.
        """
        gauge = CallableGauge(name, fn)
        existing = self._instruments.get(name)
        if existing is not None and not isinstance(existing, CallableGauge):
            raise SimulationError(
                f"metric {name!r} already registered as {existing.kind}")
        self._instruments[name] = gauge
        return gauge

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                  reservoir_size: int = DEFAULT_RESERVOIR,
                  unit: str = "s") -> Histogram:
        """Get or create the histogram called ``name``."""
        return self._get_or_create(name, Histogram, buckets, reservoir_size,
                                   unit=unit)

    def value(self, name: str) -> Any:
        """The current value of a counter or gauge (raises on unknown)."""
        try:
            instrument = self._instruments[name]
        except KeyError:
            raise SimulationError(f"unknown metric: {name}") from None
        if isinstance(instrument, Histogram):
            return instrument.summary()
        return instrument.value

    def find(self, prefix: str) -> Dict[str, Any]:
        """All instruments whose name is ``prefix`` or sits under it."""
        dotted = prefix.rstrip(".") + "."
        return {name: inst for name, inst in self._instruments.items()
                if name == prefix or name.startswith(dotted)}

    def names(self) -> List[str]:
        """Every registered name, sorted."""
        return sorted(self._instruments)

    def items(self, prefix: str = ""):
        """Yield ``(name, instrument)`` pairs in name order.

        The one iteration primitive every exporter shares — no re-lookup
        dance, and ``prefix`` scopes it to a subtree like :meth:`find`.
        """
        selected = self.find(prefix) if prefix else self._instruments
        for name in sorted(selected):
            yield name, selected[name]

    def snapshot(self, prefix: str = "") -> Dict[str, Any]:
        """name → value (histograms become their summary dict), sorted.

        Callable gauges are evaluated at snapshot time, so the result is
        a consistent point-in-time view of live state.
        """
        return {name: self.value(name) for name, _ in self.items(prefix)}
