"""Span-based tracing for the deployment pipeline.

A :class:`Trace` collects nested :class:`Span` records (monotonic
wall-clock time via ``time.perf_counter``) plus a
:class:`~repro.obs.metrics.MetricsRegistry`.  Instrumented code wraps
each pipeline stage::

    trace = Trace("deploy")
    with trace.span("partition", algorithm="kl"):
        ...

and every stage of :class:`~repro.core.compass.NFCompass` resolves the
trace the same way: an explicit ``trace=`` argument wins, otherwise
the ambient trace installed by :func:`use_trace`, otherwise the shared
:data:`NULL_TRACE` whose spans and metrics are no-ops — so the
disabled path costs one dict lookup and a reused context manager per
*stage*, never per batch or per packet.

Every span a trace records is wall-clock time (``clock == "wall"``).
The ``clock`` field stays in the NDJSON record, so a trace written with
other spans (older traces carry simulated-time ``"sim"`` spans) still
loads and round-trips; the per-stage views read wall-clock spans only.

Traces export to NDJSON (one JSON object per line: a header, then
spans, then metrics) and load back with :meth:`Trace.from_ndjson`;
``repro trace FILE`` renders the per-stage summary table.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.obs.metrics import MetricsRegistry, NullMetricsRegistry

NDJSON_VERSION = 1

#: Clock used by wall-time spans: monotonic and high resolution.
_DEFAULT_CLOCK = time.perf_counter

WALL_CLOCK = "wall"


@dataclass
class Span:
    """One timed region; ``parent_id`` links the nesting tree."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    clock: str = WALL_CLOCK
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "clock": self.clock,
            "attrs": self.attrs,
        }


class _SpanContext:
    """Context manager for one in-flight span."""

    __slots__ = ("_trace", "name", "attrs", "span_id", "start")

    def __init__(self, trace: "Trace", name: str,
                 attrs: Dict[str, object]):
        self._trace = trace
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.start = 0.0

    def __enter__(self) -> "_SpanContext":
        self.span_id = self._trace._enter()
        self.start = self._trace._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = self._trace._clock()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._trace._exit(self, end)

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)


class _NullSpanContext:
    """Shared no-op context manager for disabled tracing."""

    __slots__ = ()
    span_id = None
    name = ""
    attrs: Dict[str, object] = {}

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def set(self, **attrs: object) -> None:
        pass


_NULL_SPAN = _NullSpanContext()


class Trace:
    """A collection of spans and metrics for one pipeline execution."""

    enabled = True

    def __init__(self, name: str = "trace",
                 clock: Callable[[], float] = _DEFAULT_CLOCK):
        self.name = name
        self._clock = clock
        self.spans: List[Span] = []
        self.metrics = MetricsRegistry()
        self._stack: List[int] = []
        self._next_id = 0

    # -- span recording ------------------------------------------------
    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a nested wall-clock span as a context manager."""
        return _SpanContext(self, name, attrs)

    def _enter(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _exit(self, context: _SpanContext, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(
            span_id=context.span_id,
            parent_id=parent,
            name=context.name,
            start=context.start,
            end=end,
            clock=WALL_CLOCK,
            attrs=context.attrs,
        ))

    # -- metric conveniences -------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).add(amount)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    # -- queries -------------------------------------------------------
    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def stage_names(self) -> List[str]:
        """Distinct wall-clock span names in first-seen order."""
        seen: List[str] = []
        for span in self.spans:
            if span.clock == WALL_CLOCK and span.name not in seen:
                seen.append(span.name)
        return seen

    # -- NDJSON --------------------------------------------------------
    def to_ndjson(self) -> str:
        """One JSON object per line: header, spans, metrics."""
        lines = [json.dumps({
            "type": "trace",
            "name": self.name,
            "version": NDJSON_VERSION,
        }, sort_keys=True)]
        for span in self.spans:
            lines.append(json.dumps(span.to_dict(), sort_keys=True))
        snapshot = self.metrics.snapshot()
        for name, value in snapshot["counters"].items():
            lines.append(json.dumps(
                {"type": "counter", "name": name, "value": value},
                sort_keys=True))
        for name, value in snapshot["gauges"].items():
            lines.append(json.dumps(
                {"type": "gauge", "name": name, "value": value},
                sort_keys=True))
        for name, data in snapshot["histograms"].items():
            lines.append(json.dumps(
                {"type": "histogram", "name": name,
                 "values": data["values"]},
                sort_keys=True))
        return "\n".join(lines) + "\n"

    def write_ndjson(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_ndjson())

    @classmethod
    def from_ndjson(cls, text_or_lines) -> "Trace":
        """Rebuild a trace from :meth:`to_ndjson` output.

        Unknown record types are rejected so schema drift between
        writer and reader fails loudly.
        """
        if isinstance(text_or_lines, str):
            lines: Iterable[str] = text_or_lines.splitlines()
        else:
            lines = text_or_lines
        trace = cls()
        max_id = -1
        for line in lines:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("type")
            if kind == "trace":
                if record.get("version") != NDJSON_VERSION:
                    raise ValueError(
                        f"unsupported trace version "
                        f"{record.get('version')!r}")
                trace.name = record.get("name", "trace")
            elif kind == "span":
                span = Span(
                    span_id=record["id"],
                    parent_id=record["parent"],
                    name=record["name"],
                    start=record["start"],
                    end=record["end"],
                    clock=record.get("clock", WALL_CLOCK),
                    attrs=record.get("attrs", {}),
                )
                trace.spans.append(span)
                max_id = max(max_id, span.span_id)
            elif kind == "counter":
                trace.metrics.counter(record["name"]).add(record["value"])
            elif kind == "gauge":
                trace.metrics.gauge(record["name"]).set(record["value"])
            elif kind == "histogram":
                histogram = trace.metrics.histogram(record["name"])
                for value in record.get("values", []):
                    histogram.observe(value)
            else:
                raise ValueError(f"unknown trace record type {kind!r}")
        trace._next_id = max_id + 1
        return trace

    @classmethod
    def read_ndjson(cls, path) -> "Trace":
        with open(path) as handle:
            return cls.from_ndjson(handle)


class NullTrace(Trace):
    """The disabled trace: every operation is a shared no-op."""

    enabled = False

    def __init__(self):
        super().__init__(name="null")
        self.metrics = NullMetricsRegistry()

    def span(self, name: str, **attrs: object) -> _SpanContext:
        return _NULL_SPAN  # type: ignore[return-value]

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def to_ndjson(self) -> str:
        raise RuntimeError("NULL_TRACE cannot be exported")


#: The shared disabled trace; instrumented code holds this when no
#: trace was supplied or activated, making tracing zero-cost.
NULL_TRACE = NullTrace()

_ACTIVE: List[Trace] = []


def current_trace() -> Trace:
    """The innermost trace activated via :func:`use_trace`."""
    return _ACTIVE[-1] if _ACTIVE else NULL_TRACE


def resolve_trace(trace: Optional[Trace]) -> Trace:
    """Explicit argument wins; else the ambient trace; else the null."""
    return trace if trace is not None else current_trace()


@contextmanager
def use_trace(trace: Trace):
    """Install ``trace`` as the ambient trace for the enclosed block.

    Lets entry points (the CLI, experiment harnesses) turn on tracing
    without threading a ``trace=`` argument through every call layer.
    """
    _ACTIVE.append(trace)
    try:
        yield trace
    finally:
        _ACTIVE.pop()
