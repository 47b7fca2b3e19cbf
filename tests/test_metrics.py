"""Recall/precision, latency statistics, time series, reporting."""

import pytest

from repro.metrics.recall import precision, recall
from repro.metrics.reporting import format_duration, render_series, render_table
from repro.metrics.stats import TimeSeries
from repro.obs.metrics import Histogram


def test_recall_basic():
    assert recall(["a", "b"], ["a", "b", "c", "d"]) == 0.5
    assert recall([], ["a"]) == 0.0
    assert recall(["a"], []) == 1.0
    assert recall(["a", "x"], ["a"]) == 1.0


def test_precision_basic():
    assert precision(["a", "x"], ["a"]) == 0.5
    assert precision([], ["a"]) == 1.0
    assert precision(["a"], ["a"]) == 1.0


def test_recall_ignores_duplicates():
    assert recall(["a", "a"], ["a", "b"]) == 0.5


# Fig 10 / Fig 11 collect their latencies in a standalone Histogram.

def test_latency_collector_stats():
    collector = Histogram("test", reservoir_size=4096)
    for v in (1.0, 2.0, 3.0, 4.0):
        collector.observe(v)
    assert collector.count == 4
    assert collector.mean == 2.5
    assert collector.total == 10.0
    assert collector.minimum == 1.0
    assert collector.maximum == 4.0
    assert collector.percentile(50) == 2.0
    assert collector.percentile(100) == 4.0
    assert collector.percentile(0) == 1.0


def test_latency_percentile_validation():
    collector = Histogram("test", reservoir_size=4096)
    collector.observe(1.0)
    with pytest.raises(ValueError):
        collector.percentile(101)
    with pytest.raises(ValueError):
        collector.percentile(-1)


def test_time_series():
    series = TimeSeries("recall")
    series.add(0.0, 1.0)
    series.add(10.0, 0.5)
    series.add(20.0, 0.0)
    assert len(series) == 3
    assert series.mean() == pytest.approx(0.5)
    assert series.minimum() == 0.0
    assert series.final() == 0.0
    assert series.points[0] == (0.0, 1.0)


def test_render_table_alignment():
    out = render_table(["name", "value"], [["a", 1], ["long-name", 2.5]],
                       title="My Table")
    lines = out.splitlines()
    assert lines[0] == "My Table"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    # Columns align: separator row is as wide as the widest cell.
    assert len(lines[2].split("  ")[0]) == len("long-name")


def test_render_series():
    out = render_series("recall", [(0, 1.0), (10, 0.5)],
                        x_label="t(s)", y_label="recall")
    assert "recall" in out
    assert len(out.splitlines()) == 3


def test_format_duration_scales():
    assert format_duration(15.6e-6) == "15.6us"
    assert format_duration(0.0031) == "3.10ms"
    assert format_duration(2.5) == "2.500s"
