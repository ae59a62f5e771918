"""Tests for the span tracer and metrics registry."""

import pytest

from repro.obs import (
    NULL_TRACE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    NullTrace,
    Trace,
    current_trace,
    resolve_trace,
    stage_summary,
    use_trace,
)
from repro.obs.trace import WALL_CLOCK, _NULL_SPAN


#: A simulated-time span as traces written before every span was
#: wall-clock recorded it (a recorder node bridged under ``simulate``).
SIM_SPAN_LINE = (
    '{"attrs": {"events": 3}, "clock": "sim", "end": 1.25, "id": 7, '
    '"name": "node:x", "parent": null, "start": 0.5, "type": "span"}'
)


class FakeClock:
    """Deterministic clock: each reading advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestSpans:
    def test_nesting_records_parent_ids(self):
        trace = Trace("t", clock=FakeClock())
        with trace.span("outer"):
            with trace.span("inner"):
                pass
            with trace.span("inner"):
                pass
        by_name = {}
        for span in trace.spans:
            by_name.setdefault(span.name, []).append(span)
        (outer,) = by_name["outer"]
        inner = by_name["inner"]
        assert outer.parent_id is None
        assert all(s.parent_id == outer.span_id for s in inner)
        assert len({s.span_id for s in trace.spans}) == 3

    def test_span_attrs_and_set(self):
        trace = Trace(clock=FakeClock())
        with trace.span("stage", algorithm="kl") as span:
            span.set(objective=1.5)
        (recorded,) = trace.spans
        assert recorded.attrs == {"algorithm": "kl", "objective": 1.5}

    def test_exception_marks_span_and_propagates(self):
        trace = Trace(clock=FakeClock())
        with pytest.raises(ValueError):
            with trace.span("bad"):
                raise ValueError("boom")
        (span,) = trace.spans
        assert span.attrs["error"] == "ValueError"
        # The stack unwound: the next span is top-level again.
        with trace.span("after"):
            pass
        assert trace.spans[-1].parent_id is None

    def test_durations_use_injected_clock(self):
        trace = Trace(clock=FakeClock(step=2.0))
        with trace.span("a"):
            pass
        (span,) = trace.spans
        assert span.duration == pytest.approx(2.0)
        assert span.clock == WALL_CLOCK

    def test_loaded_sim_span_keeps_its_clock(self):
        trace = Trace.from_ndjson(SIM_SPAN_LINE)
        (span,) = trace.spans
        assert span.clock == "sim"
        assert span.duration == pytest.approx(0.75)
        assert span.attrs == {"events": 3}
        assert "node:x" not in trace.stage_names()  # sim spans excluded

    def test_spans_named_and_stage_names(self):
        trace = Trace(clock=FakeClock())
        with trace.span("deploy"):
            with trace.span("partition"):
                pass
            with trace.span("partition"):
                pass
        assert len(trace.spans_named("partition")) == 2
        assert trace.stage_names() == ["partition", "deploy"]


class TestNullTrace:
    def test_null_trace_records_nothing(self):
        before = len(NULL_TRACE.spans)
        with NULL_TRACE.span("anything", attr=1) as span:
            span.set(more=2)
        NULL_TRACE.count("c")
        NULL_TRACE.gauge("g", 5.0)
        NULL_TRACE.observe("h", 5.0)
        assert len(NULL_TRACE.spans) == before == 0
        assert NULL_TRACE.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_null_trace_span_is_shared_singleton(self):
        # Zero-cost requirement: no allocation on the disabled path.
        assert NULL_TRACE.span("a") is NULL_TRACE.span("b") is _NULL_SPAN
        registry = NULL_TRACE.metrics
        assert registry.counter("x") is registry.histogram("y")

    def test_null_trace_flags(self):
        assert NULL_TRACE.enabled is False
        assert Trace().enabled is True
        assert isinstance(NULL_TRACE, NullTrace)
        with pytest.raises(RuntimeError):
            NULL_TRACE.to_ndjson()


class TestResolution:
    def test_explicit_argument_wins(self):
        ambient, explicit = Trace("ambient"), Trace("explicit")
        with use_trace(ambient):
            assert resolve_trace(explicit) is explicit
            assert resolve_trace(None) is ambient

    def test_ambient_stack_nests_and_restores(self):
        assert current_trace() is NULL_TRACE
        outer, inner = Trace("outer"), Trace("inner")
        with use_trace(outer):
            assert current_trace() is outer
            with use_trace(inner):
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is NULL_TRACE
        assert resolve_trace(None) is NULL_TRACE

    def test_use_trace_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_trace(Trace()):
                raise RuntimeError
        assert current_trace() is NULL_TRACE


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter("c")
        counter.add()
        counter.add(2.5)
        counter.inc()
        assert counter.value == pytest.approx(4.5)
        with pytest.raises(ValueError):
            counter.add(-1)

    def test_gauge_last_value_wins(self):
        gauge = Gauge("g")
        gauge.set(1.0)
        gauge.set(7.0)
        assert gauge.value == 7.0

    def test_histogram_statistics(self):
        histogram = Histogram("h")
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(6.0)
        assert histogram.mean == pytest.approx(2.0)
        assert histogram.min == 1.0
        assert histogram.max == 3.0

    def test_registry_interns_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        snapshot = registry.snapshot()
        assert set(snapshot["counters"]) == {"a"}
        assert set(snapshot["gauges"]) == {"b"}
        assert snapshot["histograms"]["c"]["count"] == 0

    def test_null_registry_discards(self):
        registry = NullMetricsRegistry()
        registry.counter("a").add(5)
        registry.gauge("b").set(5)
        registry.histogram("c").observe(5)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_trace_metric_conveniences(self):
        trace = Trace()
        trace.count("c")
        trace.count("c", 2)
        trace.gauge("g", 3.0)
        trace.observe("h", 4.0)
        snapshot = trace.metrics.snapshot()
        assert snapshot["counters"]["c"] == 3
        assert snapshot["gauges"]["g"] == 3.0
        assert snapshot["histograms"]["h"]["values"] == [4.0]


class TestStageSummary:
    def test_self_time_subtracts_direct_children(self):
        clock = FakeClock(step=0.0)  # manual control below
        trace = Trace(clock=lambda: clock.now)
        with trace.span("outer"):
            clock.now = 1.0
            with trace.span("inner"):
                clock.now = 4.0
            clock.now = 10.0
        rows = {row.name: row for row in stage_summary(trace)}
        assert rows["outer"].wall_seconds == pytest.approx(10.0)
        assert rows["inner"].wall_seconds == pytest.approx(3.0)
        assert rows["outer"].self_seconds == pytest.approx(7.0)
        assert rows["inner"].self_seconds == pytest.approx(3.0)

    def test_aggregates_calls_and_sorts_by_wall(self):
        clock = FakeClock(step=0.0)
        trace = Trace(clock=lambda: clock.now)
        for duration in (1.0, 2.0):
            start = clock.now
            with trace.span("short"):
                clock.now = start + duration
        start = clock.now
        with trace.span("long"):
            clock.now = start + 10.0
        rows = stage_summary(trace)
        assert [r.name for r in rows] == ["long", "short"]
        assert rows[1].calls == 2
        assert rows[1].wall_seconds == pytest.approx(3.0)
        assert rows[1].mean_seconds == pytest.approx(1.5)
        assert rows[1].max_seconds == pytest.approx(2.0)

    def test_sim_spans_excluded_from_stage_summary(self):
        trace = Trace.from_ndjson(SIM_SPAN_LINE)
        with trace.span("wall"):
            pass
        rows = stage_summary(trace)
        assert [r.name for r in rows] == ["wall"]
