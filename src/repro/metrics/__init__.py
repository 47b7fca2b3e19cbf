"""Measurement utilities: recall/precision, time series, and the
fixed-width table/series renderers all benchmarks share."""

from repro.metrics.recall import precision, recall
from repro.metrics.reporting import format_duration, render_series, render_table
from repro.metrics.stats import TimeSeries

__all__ = [
    "precision",
    "recall",
    "format_duration",
    "render_series",
    "render_table",
    "TimeSeries",
]
