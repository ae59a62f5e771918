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

    def test_batch_latency_matches_report(self, traced_run):
        recorder, report, _graph = traced_run
        latencies = [e.completion - e.arrival
                     for e in recorder.batch_events]
        assert max(latencies) == pytest.approx(report.latency.max)

    def test_events_for_batch(self, traced_run):
        recorder, _report, graph = traced_run
        events = recorder.events_for_batch(2)
        assert len(events) == len(graph)
        assert {e.node_id for e in events} == set(graph.nodes)


class TestAnalysis:
    def test_json_export_roundtrips(self, traced_run):
        recorder, _report, _graph = traced_run
        payload = json.loads(recorder.to_json())
        assert len(payload["node_events"]) == len(recorder.node_events)
        assert payload["batch_events"][0]["batch_index"] == 0
