"""Per-stage summaries over a recorded trace.

Turns the flat span list of a :class:`~repro.obs.trace.Trace` into the
table the ``repro trace`` subcommand prints: for every wall-clock span
name, the call count, total wall time, and *self* time (wall time
minus the wall time of direct children — the stage's own cost with its
sub-stages taken out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.trace import Trace, WALL_CLOCK


@dataclass
class StageSummary:
    """Aggregate of every wall-clock span sharing one name."""

    name: str
    calls: int
    wall_seconds: float
    self_seconds: float
    max_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.wall_seconds / self.calls if self.calls else 0.0


def stage_summary(trace: Trace) -> List[StageSummary]:
    """Per-name wall/self-time aggregates, longest wall time first."""
    wall_spans = [s for s in trace.spans if s.clock == WALL_CLOCK]
    child_time: Dict[int, float] = {}
    for span in wall_spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration
            )
    rows: Dict[str, StageSummary] = {}
    for span in wall_spans:
        self_seconds = max(
            0.0, span.duration - child_time.get(span.span_id, 0.0)
        )
        row = rows.get(span.name)
        if row is None:
            rows[span.name] = StageSummary(
                name=span.name, calls=1,
                wall_seconds=span.duration,
                self_seconds=self_seconds,
                max_seconds=span.duration,
            )
        else:
            row.calls += 1
            row.wall_seconds += span.duration
            row.self_seconds += self_seconds
            row.max_seconds = max(row.max_seconds, span.duration)
    return sorted(rows.values(), key=lambda r: -r.wall_seconds)


def _format_rows(headers: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def format_trace_summary(trace: Trace,
                         title: Optional[str] = None) -> str:
    """Render the per-stage table plus the trace's metrics."""
    summaries = stage_summary(trace)
    wall_spans = [s for s in trace.spans if s.clock == WALL_CLOCK]
    total_root = sum(s.duration for s in wall_spans if s.parent_id is None)
    lines = [title or f"trace {trace.name!r}: "
             f"{len(wall_spans)} spans, "
             f"{total_root * 1e3:.2f} ms at top level"]
    rows = []
    for row in summaries:
        share = (row.wall_seconds / total_root) if total_root > 0 else 0.0
        rows.append([
            row.name,
            str(row.calls),
            f"{row.wall_seconds * 1e3:.3f}",
            f"{row.self_seconds * 1e3:.3f}",
            f"{share:.0%}",
        ])
    lines.extend(_format_rows(
        ["stage", "calls", "wall ms", "self ms", "share"], rows
    ))

    snapshot = trace.metrics.snapshot()
    metric_rows: List[List[str]] = []
    for name, value in snapshot["counters"].items():
        metric_rows.append([name, "counter", f"{value:g}"])
    for name, value in snapshot["gauges"].items():
        metric_rows.append([name, "gauge", f"{value:g}"])
    for name, data in snapshot["histograms"].items():
        metric_rows.append([
            name, "histogram",
            f"n={data['count']} min={data['min']:g} max={data['max']:g}",
        ])
    if metric_rows:
        lines.append("")
        lines.extend(_format_rows(["metric", "kind", "value"],
                                  metric_rows))
    return "\n".join(lines)
