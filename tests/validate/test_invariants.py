"""Tier-1 tests for the ValidatingRecorder and packet conservation."""

import pytest
from builders import build_chain, make_packets

from repro.core.orchestrator import SFCOrchestrator
from repro.elements.graph import ElementGraph
from repro.elements.standard import Counter, Tee
from repro.sim.engine import BranchProfile
from repro.sim.mapping import Deployment, Mapping
from repro.validate.invariants import (
    InvariantViolation,
    ValidatingRecorder,
    verify_packet_conservation,
)


class TestValidatingRecorder:
    def test_real_run_passes(self, engine, udp_spec):
        sfc = build_chain(["firewall", "ids"])
        graph = sfc.concatenated_graph()
        deployment = Deployment(graph, Mapping.all_cpu(graph))
        recorder = ValidatingRecorder(batch_size=32)
        engine.session(deployment).run(udp_spec, batch_size=32, batch_count=20,
                                       recorder=recorder)
        assert recorder.ok
        assert recorder.node_events and recorder.batch_events

    def test_real_parallel_run_passes(self, engine, udp_spec):
        sfc = build_chain(["probe", "firewall", "lb"])
        _plan, graph = SFCOrchestrator().parallelize(sfc)
        deployment = Deployment(graph, Mapping.all_cpu(graph))
        profile = BranchProfile.measure(graph, udp_spec,
                                        sample_packets=128,
                                        batch_size=32)
        recorder = ValidatingRecorder(batch_size=32)
        engine.session(deployment).run(udp_spec, batch_size=32, batch_count=20,
                                       branch_profile=profile,
                                       recorder=recorder)
        assert recorder.ok

    def test_completion_before_ready_raises(self):
        recorder = ValidatingRecorder()
        with pytest.raises(InvariantViolation, match="precedes ready"):
            recorder.record_node(0, "n", ready=2.0, completion=1.0,
                                 packets=8.0)

    def test_negative_packets_raises(self):
        recorder = ValidatingRecorder()
        with pytest.raises(InvariantViolation, match="negative packet"):
            recorder.record_node(0, "n", ready=0.0, completion=1.0,
                                 packets=-1.0)

    def test_non_monotone_batch_clock_raises(self):
        recorder = ValidatingRecorder()
        recorder.record_batch(0, arrival=5.0, completion=6.0,
                              delivered=1.0)
        with pytest.raises(InvariantViolation, match="non-monotone"):
            recorder.record_batch(1, arrival=4.0, completion=6.0,
                                  delivered=1.0)

    def test_duplication_across_merge_raises(self):
        recorder = ValidatingRecorder(batch_size=32)
        with pytest.raises(InvariantViolation, match="exceeds offered"):
            recorder.record_batch(0, arrival=0.0, completion=1.0,
                                  delivered=96.0)

    def test_work_before_arrival_raises(self):
        recorder = ValidatingRecorder()
        recorder.record_node(0, "n", ready=0.5, completion=1.0,
                             packets=8.0)
        with pytest.raises(InvariantViolation, match="before the batch"):
            recorder.record_batch(0, arrival=1.0, completion=2.0,
                                  delivered=8.0)

    def test_collect_mode_keeps_recording(self):
        recorder = ValidatingRecorder(strict=False)
        recorder.record_node(0, "n", ready=2.0, completion=1.0,
                             packets=-1.0)
        assert not recorder.ok
        assert len(recorder.violations) == 2
        assert len(recorder.node_events) == 1


class TestPacketConservation:
    def test_sequential_chain_conserves(self):
        graph = build_chain(["firewall", "ids"]).concatenated_graph()
        assert verify_packet_conservation(graph, make_packets()) == []

    def test_parallel_stage_conserves(self):
        sfc = build_chain(["probe", "firewall", "lb"])
        _plan, graph = SFCOrchestrator().parallelize(sfc)
        assert verify_packet_conservation(graph, make_packets()) == []

    def test_unmerged_duplication_detected(self):
        # A Tee with no downstream merge delivers every uid twice.
        graph = ElementGraph(name="dup")
        tee = graph.add(Tee(fanout=2, name="tee"))
        left = graph.add(Counter(name="left"))
        right = graph.add(Counter(name="right"))
        graph.connect(tee, left, src_port=0)
        graph.connect(tee, right, src_port=1)
        problems = verify_packet_conservation(graph, make_packets(count=8))
        assert any("deduplicate" in p for p in problems)
