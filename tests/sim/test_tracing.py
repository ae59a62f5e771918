"""Tests for execution tracing."""

import json

import pytest

from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.mapping import Deployment, Mapping
from repro.sim.tracing import EventRecorder
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


@pytest.fixture
def traced_run(engine):
    spec = TrafficSpec(size_law=FixedSize(128), offered_gbps=10.0,
                       seed=3)
    graph = ServiceFunctionChain([make_nf("probe")]).concatenated_graph()
    deployment = Deployment(graph, Mapping.all_cpu(graph))
    recorder = EventRecorder()
    report = engine.session(deployment).run(spec, batch_size=16, batch_count=5,
                                            recorder=recorder)
    return recorder, report, graph


class TestRecording:
    def test_node_events_cover_batches_and_nodes(self, traced_run):
        recorder, _report, graph = traced_run
        assert len(recorder.node_events) == 5 * len(graph)
        assert len(recorder.batch_events) == 5

    def test_event_times_ordered(self, traced_run):
        recorder, _report, _graph = traced_run
        for event in recorder.node_events:
            assert event.completion >= event.ready
            assert event.span >= 0

    def test_batch_latency_matches_report(self, traced_run):
        recorder, report, _graph = traced_run
        latencies = [e.latency for e in recorder.batch_events]
        assert max(latencies) == pytest.approx(report.latency.max)

    def test_events_for_batch(self, traced_run):
        recorder, _report, graph = traced_run
        events = recorder.events_for_batch(2)
        assert len(events) == len(graph)
        assert {e.node_id for e in events} == set(graph.nodes)

    def test_critical_path_ordered(self, traced_run):
        recorder, _report, _graph = traced_run
        path = recorder.critical_path(0)
        completions = [e.completion for e in path]
        assert completions == sorted(completions)


class TestAnalysis:
    def test_bottleneck_node_is_heaviest(self, traced_run):
        recorder, _report, _graph = traced_run
        bottleneck = recorder.bottleneck_node()
        spans = recorder.node_spans()
        assert spans[bottleneck] == max(spans.values())

    def test_empty_recorder_has_no_bottleneck(self):
        assert EventRecorder().bottleneck_node() is None

    def test_json_export_roundtrips(self, traced_run):
        recorder, _report, _graph = traced_run
        payload = json.loads(recorder.to_json())
        assert len(payload["node_events"]) == len(recorder.node_events)
        assert payload["batch_events"][0]["batch_index"] == 0

    def test_summary_readable(self, traced_run):
        recorder, _report, _graph = traced_run
        text = recorder.summary()
        assert "node events" in text
        assert "batch latency" in text


class TestRoundTrip:
    def test_from_dict_rebuilds_events(self, traced_run):
        recorder, _report, _graph = traced_run
        rebuilt = EventRecorder.from_dict(recorder.to_dict())
        assert rebuilt.node_events == recorder.node_events
        assert rebuilt.batch_events == recorder.batch_events

    def test_from_json_rebuilds_analysis(self, traced_run):
        recorder, _report, _graph = traced_run
        rebuilt = EventRecorder.from_json(recorder.to_json(indent=2))
        assert rebuilt.node_spans() == recorder.node_spans()
        assert rebuilt.bottleneck_node() == recorder.bottleneck_node()
        assert rebuilt.to_json() == recorder.to_json()

    def test_empty_recorder_roundtrips(self):
        rebuilt = EventRecorder.from_json(EventRecorder().to_json())
        assert rebuilt.node_events == [] and rebuilt.batch_events == []

    def test_schema_drift_fails_loudly(self):
        with pytest.raises(TypeError):
            EventRecorder.from_dict(
                {"node_events": [{"batch_index": 0, "node_id": "n",
                                  "ready": 0.0, "completion": 1.0,
                                  "packets": 8.0, "surprise": 1}]}
            )
