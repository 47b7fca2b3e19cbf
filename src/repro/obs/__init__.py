"""repro.obs — cluster-wide observability.

Six layers, all charging **zero simulated time**:

* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  histograms under hierarchical names (``cluster.in1.disk.reads``);
* :mod:`repro.obs.tracing` — span-based tracing on the virtual clock
  (:data:`NULL_TRACER` is the free disabled default);
* :mod:`repro.obs.timeline` / :mod:`repro.obs.freshness` — continuous
  telemetry: per-metric time series sampled at a virtual-time interval,
  and change-to-search-visible staleness tracking per node;
* :mod:`repro.obs.journal` — the bounded, clock-ordered cluster event
  journal (failovers, epoch bumps, fences, faults, SLO transitions),
  span-id correlated (:data:`NULL_JOURNAL` is the free default);
* :mod:`repro.obs.slo` / :mod:`repro.obs.health` — declarative SLOs
  with multi-window burn-rate alerting, and the health plane deriving
  per-node + cluster verdicts from live deployment state;
* :mod:`repro.obs.profile` / :mod:`repro.obs.export` — EXPLAIN
  ANALYZE-style query profiles and table/JSON exporters.

Enable tracing on a deployment with ``service.enable_tracing()``; the
journal, SLO tracker, and health monitor are always on (they cost
nothing).  Read metrics from ``service.registry``, events from
``service.journal``, verdicts from ``service.health``.
"""

from repro.obs.export import (
    journal_to_dict,
    journal_to_json,
    registry_to_dict,
    registry_to_json,
    render_journal,
    render_registry,
    render_slo,
    render_span_tree,
    slo_to_dict,
    slo_to_json,
    span_to_dict,
    span_to_json,
)
from repro.obs.freshness import NULL_FRESHNESS, FreshnessTracker, NullFreshness
from repro.obs.health import HealthMonitor, HealthVerdict
from repro.obs.journal import (
    NULL_JOURNAL,
    EventJournal,
    JournalEvent,
    NullJournal,
)
from repro.obs.metrics import (
    CallableGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import QueryProfile
from repro.obs.slo import (
    NULL_SLOS,
    NullSloTracker,
    SloSpec,
    SloTracker,
    default_specs,
)
from repro.obs.timeline import NULL_TIMELINE, NullTimeline, TimelineRecorder
from repro.obs.tracing import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "CallableGauge",
    "Counter",
    "EventJournal",
    "FreshnessTracker",
    "Gauge",
    "HealthMonitor",
    "HealthVerdict",
    "Histogram",
    "JournalEvent",
    "MetricsRegistry",
    "NULL_FRESHNESS",
    "NULL_JOURNAL",
    "NULL_SLOS",
    "NULL_TIMELINE",
    "NULL_TRACER",
    "NullFreshness",
    "NullJournal",
    "NullSloTracker",
    "NullTimeline",
    "NullTracer",
    "QueryProfile",
    "SloSpec",
    "SloTracker",
    "Span",
    "TimelineRecorder",
    "Tracer",
    "default_specs",
    "journal_to_dict",
    "journal_to_json",
    "registry_to_dict",
    "registry_to_json",
    "render_journal",
    "render_registry",
    "render_slo",
    "render_span_tree",
    "slo_to_dict",
    "slo_to_json",
    "span_to_dict",
    "span_to_json",
]
