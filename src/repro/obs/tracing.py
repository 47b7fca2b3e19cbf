"""Span-based tracing on the virtual clock.

A :class:`Tracer` records where simulated time goes: every instrumented
stage opens a :class:`Span`, nested spans form a tree, and span bounds
are read from the shared :class:`~repro.sim.clock.SimClock` — tracing
never *charges* the clock, so enabling it cannot change a benchmark's
numbers.  One search yields a tree like::

    search
    ├─ route_pending               (pending updates → per-node envelopes)
    └─ fanout                      (parallel: wall time = slowest leg)
       ├─ rpc:search  target=in1
       │  ├─ carry                 (only if updates were pending: park,
       │  │  └─ replicate           one WAL fsync, stream to followers)
       │  ├─ cache_commit
       │  ├─ page_faults
       │  ├─ plan
       │  └─ index_scan
       └─ rpc:search  target=in2 ...

Children of a span whose ``parallel`` attribute is true ran as logically
concurrent work under :meth:`SimClock.parallel`: each child's bounds
cover its own rewound window, and the parent's duration is the slowest
child (see :mod:`repro.obs.profile` for critical-path accounting).

:data:`NULL_TRACER` is the default everywhere: a no-op implementation
that allocates nothing and keeps instrumented code on the exact same
simulated-cost path as uninstrumented code.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # import only for annotations: sim.disk imports this
    from repro.sim.clock import SimClock  # module, so a runtime import
    # would be circular.

# Keep a bounded history of finished roots so a long-running traced
# service cannot grow without bound.
DEFAULT_MAX_ROOTS = 256


class Span:
    """One traced stage: name, virtual-time bounds, attributes, children.

    ``metrics`` holds counts annotated onto the span while it was open
    (page faults, disk reads, bytes) — cheap aggregates for events too
    frequent to deserve child spans of their own.
    """

    __slots__ = ("name", "start", "end", "attributes", "metrics",
                 "children", "status", "error", "span_id")

    def __init__(self, name: str, start: float,
                 attributes: Optional[Dict[str, Any]] = None,
                 span_id: Optional[int] = None) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = attributes or {}
        self.metrics: Dict[str, float] = {}
        self.children: List[Span] = []
        self.status = "ok"
        self.error: Optional[str] = None
        # Monotonic per-tracer id, the correlation key the event journal
        # stamps onto events emitted while this span is open.
        self.span_id = span_id

    @property
    def duration(self) -> float:
        """Virtual seconds the span covered (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def record(self, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to an aggregate metric on this span."""
        self.metrics[key] = self.metrics.get(key, 0.0) + amount

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def mark_error(self, message: str) -> None:
        """Flag the span failed (kept on normal close for early failures)."""
        self.status = "error"
        self.error = message

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every span in this subtree with the given name."""
        return [s for s in self.walk() if s.name == name]

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration:.6f}s, "
                f"children={len(self.children)}, status={self.status})")


class _SpanContext:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self._span.mark_error(f"{exc_type.__name__}: {exc}")
        self._tracer._close(self._span)
        return False  # never swallow


class Tracer:
    """Builds span trees from nested :meth:`span` calls.

    The tracer reads the shared virtual clock for span bounds and is
    otherwise pure bookkeeping — it charges **zero simulated time**.
    Finished root spans are kept (most recent last) up to ``max_roots``;
    evicting past that is no longer silent: :attr:`roots_dropped` counts
    every lost root, mirrored into the registry (its own unless one is
    passed) as the ``trace.roots_dropped`` counter so ``repro profile``
    can show when the window was too small for the run it profiled.
    """

    enabled = True

    def __init__(self, clock: "SimClock", max_roots: int = DEFAULT_MAX_ROOTS,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self._stack: List[Span] = []
        self.roots: Deque[Span] = deque(maxlen=max_roots)
        self.roots_dropped = 0
        self._next_span_id = 0

    def span(self, name: str, **attributes: Any) -> _SpanContext:
        """Open a child of the innermost open span (or a new root)."""
        self._next_span_id += 1
        span = Span(name, self.clock.now(), attributes or None,
                    span_id=self._next_span_id)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            # An instrumented component closed out of order — that is a
            # bug in the instrumentation, not the workload; fail loudly.
            raise RuntimeError(f"span closed out of order: {span.name}")
        self._stack.pop()
        span.end = self.clock.now()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            if len(self.roots) == self.roots.maxlen:
                self.roots_dropped += 1
                self.registry.counter("trace.roots_dropped").inc()
            self.roots.append(span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def annotate(self, key: str, amount: float = 1.0) -> None:
        """Bump an aggregate metric on the innermost open span (no-op
        when nothing is open) — the cheap path for per-page/per-IO
        events."""
        if self._stack:
            self._stack[-1].record(key, amount)

    def set_attribute(self, key: str, value: Any) -> None:
        """Set an attribute on the innermost open span, if any."""
        if self._stack:
            self._stack[-1].attributes[key] = value

    def last_root(self, name: Optional[str] = None) -> Optional[Span]:
        """The most recently finished root span (optionally by name)."""
        for span in reversed(self.roots):
            if name is None or span.name == name:
                return span
        return None

    def clear(self) -> None:
        """Drop finished roots (open spans are untouched)."""
        self.roots.clear()


class _NullSpan:
    """Inert span: accepts every mutation, stores nothing."""

    __slots__ = ()
    name = "null"
    start = 0.0
    end = 0.0
    duration = 0.0
    status = "ok"
    error = None
    span_id = None
    attributes: Dict[str, Any] = {}
    metrics: Dict[str, float] = {}
    children: List[Span] = []

    def record(self, key: str, amount: float = 1.0) -> None:
        pass

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def mark_error(self, message: str) -> None:
        pass


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code calls the same methods either way, so flipping a
    deployment between traced and untraced changes *nothing* about the
    simulated costs — the acceptance bar for observability here.
    """

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullContext:
        return _NULL_CONTEXT

    @property
    def current(self) -> None:
        return None

    def annotate(self, key: str, amount: float = 1.0) -> None:
        pass

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def last_root(self, name: Optional[str] = None) -> None:
        return None

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
