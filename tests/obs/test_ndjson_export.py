"""NDJSON export: golden format, round-trip, and error handling."""

import json

import pytest

from repro.obs import Trace, format_trace_summary, stage_summary


def make_ticker(step=1.0):
    state = {"now": 0.0}

    def clock():
        value = state["now"]
        state["now"] += step
        return value

    return clock


def sample_trace() -> Trace:
    trace = Trace(name="golden", clock=make_ticker())
    with trace.span("deploy", sfc="fw->nat") as span:
        with trace.span("partition", algorithm="kl"):
            pass
        span.set(parallelized=False)
    trace.count("compass.candidates_evaluated", 2)
    trace.gauge("capacity_gbps", 12.5)
    trace.observe("compass.candidate_capacity_gbps", 10.0)
    trace.observe("compass.candidate_capacity_gbps", 12.5)
    return trace


GOLDEN = "\n".join([
    '{"name": "golden", "type": "trace", "version": 1}',
    '{"attrs": {"algorithm": "kl"}, "clock": "wall", "end": 2.0, '
    '"id": 1, "name": "partition", "parent": 0, "start": 1.0, '
    '"type": "span"}',
    '{"attrs": {"parallelized": false, "sfc": "fw->nat"}, '
    '"clock": "wall", "end": 3.0, "id": 0, "name": "deploy", '
    '"parent": null, "start": 0.0, "type": "span"}',
    '{"name": "compass.candidates_evaluated", "type": "counter", '
    '"value": 2.0}',
    '{"name": "capacity_gbps", "type": "gauge", "value": 12.5}',
    '{"name": "compass.candidate_capacity_gbps", "type": "histogram", '
    '"values": [10.0, 12.5]}',
]) + "\n"


#: A simulated-time span line as traces written before every span was
#: wall-clock recorded it (a recorder node bridged under ``simulate``).
SIM_SPAN_LINE = (
    '{"attrs": {"events": 2}, "clock": "sim", "end": 0.75, "id": 2, '
    '"name": "node:fw", "parent": null, "start": 0.5, "type": "span"}'
)


def with_sim_span(text: str) -> str:
    """``text`` with :data:`SIM_SPAN_LINE` after its last span line."""
    lines = text.splitlines()
    lines.insert(3, SIM_SPAN_LINE)
    return "\n".join(lines) + "\n"


class TestExport:
    def test_golden_ndjson(self):
        assert sample_trace().to_ndjson() == GOLDEN

    def test_every_line_is_json(self):
        for line in sample_trace().to_ndjson().splitlines():
            json.loads(line)

    def test_round_trip(self):
        original = sample_trace()
        restored = Trace.from_ndjson(original.to_ndjson())
        assert restored.name == original.name
        assert [s.to_dict() for s in restored.spans] == \
            [s.to_dict() for s in original.spans]
        assert restored.metrics.snapshot() == original.metrics.snapshot()
        # And re-exporting reproduces the same bytes.
        assert restored.to_ndjson() == GOLDEN

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        sample_trace().write_ndjson(path)
        restored = Trace.read_ndjson(path)
        assert restored.to_ndjson() == GOLDEN

    def test_restored_trace_can_keep_recording(self):
        restored = Trace.from_ndjson(sample_trace().to_ndjson())
        with restored.span("extra"):
            pass
        ids = [s.span_id for s in restored.spans]
        assert len(ids) == len(set(ids))  # no span-id collisions

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValueError, match="unknown trace record"):
            Trace.from_ndjson('{"type": "mystery"}')

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            Trace.from_ndjson(
                '{"type": "trace", "name": "t", "version": 99}'
            )

    def test_blank_lines_ignored(self):
        text = "\n" + sample_trace().to_ndjson() + "\n\n"
        assert Trace.from_ndjson(text).to_ndjson() == GOLDEN


class TestOlderTraces:
    def test_sim_span_loads_round_trips_and_is_left_out(self):
        """A trace written with a simulated-time span still loads,
        round-trips and renders; the summaries read its wall-clock
        spans only."""
        text = with_sim_span(GOLDEN)
        restored = Trace.from_ndjson(text)
        (sim,) = [s for s in restored.spans if s.clock == "sim"]
        assert (sim.name, sim.start, sim.end, sim.attrs) == \
            ("node:fw", 0.5, 0.75, {"events": 2})
        assert restored.to_ndjson() == text
        assert [r.name for r in stage_summary(restored)] == \
            ["deploy", "partition"]
        assert format_trace_summary(restored) == \
            format_trace_summary(sample_trace())


class TestSummaryRendering:
    def test_summary_lists_stages_and_metrics(self):
        text = format_trace_summary(sample_trace())
        assert "trace 'golden'" in text
        assert "deploy" in text and "partition" in text
        assert "compass.candidates_evaluated" in text
        assert "capacity_gbps" in text
        assert "histogram" in text

    def test_summary_title_override(self):
        text = format_trace_summary(sample_trace(), title="custom")
        assert text.splitlines()[0] == "custom"

    def test_summary_of_empty_trace(self):
        text = format_trace_summary(Trace(name="empty"))
        assert "0 spans" in text
