"""Query profiles — EXPLAIN ANALYZE for a traced search.

Turns the span tree of one search into a per-stage breakdown whose
times add up: stage *self* times along the **critical path** sum exactly
to the search's reported latency.

The subtlety is parallel fan-out.  Children of a span marked
``parallel=True`` ran as logically concurrent work (the clock lands at
``start + max(leg durations)``), so naively summing every child
over-counts.  The profile therefore follows only the slowest leg — the
one that determined the wall time, exactly the leg a tail-latency hunt
cares about — and reports the other legs separately as overlapped work.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.metrics.reporting import format_duration, render_table
from repro.obs.tracing import Span


def critical_children(span: Span) -> List[Span]:
    """The children that determined ``span``'s wall time.

    Sequential children all count; of a parallel group only the slowest
    leg does.
    """
    if span.attributes.get("parallel") and span.children:
        return [max(span.children, key=lambda s: s.duration)]
    return span.children


class ProfileRow:
    """One line of the breakdown: a span on the critical path."""

    __slots__ = ("span", "depth", "self_s", "on_critical_path")

    def __init__(self, span: Span, depth: int, self_s: float,
                 on_critical_path: bool) -> None:
        self.span = span
        self.depth = depth
        self.self_s = self_s
        self.on_critical_path = on_critical_path


class QueryProfile:
    """Per-stage breakdown of one search's span tree."""

    def __init__(self, root: Span, query: Optional[str] = None) -> None:
        if root.end is None:
            raise ValueError(f"span {root.name!r} is still open")
        self.root = root
        self.query = query if query is not None else root.attributes.get("query")
        self.total_s = root.duration
        self.rows: List[ProfileRow] = []
        self._collect(root, 0, on_critical_path=True)

    def _collect(self, span: Span, depth: int, on_critical_path: bool) -> None:
        critical = critical_children(span) if on_critical_path else []
        child_time = sum(c.duration for c in critical)
        self_s = (span.duration - child_time) if on_critical_path else 0.0
        self.rows.append(ProfileRow(span, depth, self_s, on_critical_path))
        critical_ids = {id(c) for c in critical}
        for child in span.children:
            self._collect(child, depth + 1,
                          on_critical_path and id(child) in critical_ids)

    # -- aggregation ---------------------------------------------------------

    def by_stage(self) -> Dict[str, Dict[str, float]]:
        """stage name → {calls, self_s, pct} over the critical path.

        ``self_s`` values sum (exactly, modulo float addition order) to
        :attr:`total_s`: every virtual second of the search is attributed
        to exactly one stage.
        """
        stages: Dict[str, Dict[str, float]] = {}
        for row in self.rows:
            if not row.on_critical_path:
                continue
            bucket = stages.setdefault(row.span.name,
                                       {"calls": 0, "self_s": 0.0, "pct": 0.0})
            bucket["calls"] += 1
            bucket["self_s"] += row.self_s
        for bucket in stages.values():
            bucket["pct"] = (100.0 * bucket["self_s"] / self.total_s
                             if self.total_s else 0.0)
        return stages

    def stage_time(self, name: str) -> float:
        """Critical-path self time attributed to one stage (0.0 if absent)."""
        return self.by_stage().get(name, {}).get("self_s", 0.0)

    # -- rendering -----------------------------------------------------------

    def render(self, max_depth: Optional[int] = None) -> str:
        """The breakdown as fixed-width tables (tree + per-stage totals)."""
        tree_rows = []
        for row in self.rows:
            if max_depth is not None and row.depth > max_depth:
                continue
            span = row.span
            notes = []
            for key in ("target", "acg", "batches", "access_path", "reason"):
                if key in span.attributes:
                    notes.append(f"{key}={span.attributes[key]}")
            if span.metrics:
                notes.extend(f"{k}={_fmt_metric(v)}"
                             for k, v in sorted(span.metrics.items()))
            if span.status == "error":
                notes.append(f"ERROR: {span.error}")
            label = "  " * row.depth + span.name
            if not row.on_critical_path:
                label += " *"
            tree_rows.append([
                label,
                format_duration(span.duration),
                format_duration(row.self_s) if row.on_critical_path else "-",
                f"{100.0 * row.self_s / self.total_s:.1f}%" if self.total_s
                and row.on_critical_path else "-",
                " ".join(notes),
            ])
        title = (f"query profile: {self.query!r} — total "
                 f"{format_duration(self.total_s)} (simulated)"
                 if self.query else
                 f"query profile — total {format_duration(self.total_s)} (simulated)")
        parts = [render_table(["stage", "wall", "self", "%", "detail"],
                              tree_rows, title=title)]
        stage_rows = [[name, int(agg["calls"]), format_duration(agg["self_s"]),
                       f"{agg['pct']:.1f}%"]
                      for name, agg in sorted(self.by_stage().items(),
                                              key=lambda kv: -kv[1]["self_s"])]
        parts.append(render_table(["stage", "calls", "self total", "%"],
                                  stage_rows, title="per-stage totals (critical path)"))
        parts.append("(* = overlapped parallel leg, not on the critical path)")
        return "\n\n".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: the span tree plus the per-stage totals."""
        from repro.obs.export import span_to_dict

        return {
            "query": self.query,
            "total_s": self.total_s,
            "stages": self.by_stage(),
            "tree": span_to_dict(self.root),
        }


def _fmt_metric(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.6f}"
