"""Unit tests for the event kernel (sessions + timelines).

The scheduling semantics of :class:`ResourceTimeline` are covered in
``test_engine.py`` (TestResources) and the property suites; this file
exercises the :class:`SimulationSession` layer — precomputed
invariants, session reuse, the new utilization/queue-wait report
fields — and pins a quick parity check against the frozen legacy
engine (the full golden matrix lives in ``test_golden_parity.py``).
"""

import dataclasses
import re

import pytest
from builders import multi_gpu_scenario

from repro.faults import FaultSpec, FaultTimeline
from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.overload import (
    CircuitBreaker,
    DeadlineDrop,
    OverloadConfig,
    RetryPolicy,
)
from repro.runner import canonical_fingerprint
from repro.sim.engine import BranchProfile, SimulationEngine
from repro.sim.kernel import SimulationSession
from repro.sim.legacy import LegacySimulationEngine
from repro.sim.mapping import Deployment, Mapping
from repro.sim.tracing import EventRecorder
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

#: ``canonical_fingerprint`` of kernel outputs, recorded before lanes
#: kept blocked slot lists and services were priced once per run:
#: neither may move any output.
MULTI_GPU_SATURATED = \
    "ecb0f4d5b8138045159bdb85678fc80dc239281cef9ee6d788b6d808d3f2c270"
FAULTED_PROTECTED = \
    "de4e78d04607a40ae3945fd3a4be187efdf405d67d58513bb36aeea3ff20f8a3"


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(128), offered_gbps=40.0, seed=7)


def chain_deployment(nf_types=("firewall", "ids"), ratio=0.0,
                     persistent=False):
    graph = ServiceFunctionChain(
        [make_nf(t) for t in nf_types]
    ).concatenated_graph()
    if ratio > 0:
        mapping = Mapping.fixed_ratio(graph, ratio,
                                      cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"],
                                      gpus=["gpu0"])
    else:
        mapping = Mapping.all_cpu(graph, cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"])
    return Deployment(graph, mapping, persistent_kernel=persistent,
                      name="kernel-test")


class TestSessionInvariants:
    def test_session_precomputes_graph_invariants(self, engine):
        deployment = chain_deployment(ratio=0.5)
        session = engine.session(deployment)
        assert isinstance(session, SimulationSession)
        assert list(session.order) == \
            deployment.graph.topological_order()
        assert set(session.source_nodes) == set(deployment.graph.sources())
        assert session.sink_nodes == frozenset(deployment.graph.sinks())
        assert set(session.plans) == set(session.order)

    def test_plans_capture_offload_and_pcie(self, engine):
        deployment = chain_deployment(ratio=0.5)
        session = engine.session(deployment)
        offloaded = [p for p in session.plans.values() if p.offloads]
        assert offloaded, "fixed_ratio mapping should offload something"
        for plan in offloaded:
            leg = plan.offloads[0]
            assert leg.share > 0.0
            assert leg.device_id == "gpu0"
            assert leg.h2d_resource == "pcie:gpu0:h2d"
            assert leg.d2h_resource == "pcie:gpu0:d2h"
            # A CPU/GPU-split node always crosses the PCIe boundary.
            assert leg.pays_h2d and leg.pays_d2h

    def test_session_reuse_is_deterministic(self, engine, spec):
        session = engine.session(chain_deployment(ratio=0.5))
        first = session.run(spec, batch_size=32, batch_count=20)
        second = session.run(spec, batch_size=32, batch_count=20)
        assert first.throughput_gbps == second.throughput_gbps
        assert first.latency.mean == second.latency.mean
        assert first.processor_busy_seconds == \
            second.processor_busy_seconds

    def test_session_matches_engine_facade(self, engine, spec):
        deployment = chain_deployment(ratio=0.5)
        via_session = engine.session(deployment).run(
            spec, batch_size=32, batch_count=20
        )
        via_facade = engine.run(deployment, spec, batch_size=32,
                                batch_count=20)
        assert via_session.throughput_gbps == via_facade.throughput_gbps
        assert via_session.processor_busy_seconds == \
            via_facade.processor_busy_seconds

    def test_last_timeline_kept_for_auditing(self, engine, spec):
        from repro.validate.invariants import verify_timeline
        session = engine.session(chain_deployment(ratio=0.5))
        assert session.last_timeline is None
        session.run(spec, batch_size=32, batch_count=20)
        timeline = session.last_timeline
        assert timeline is not None
        assert timeline.resources()
        assert verify_timeline(timeline) == []


class TestReportExtensions:
    def test_queue_wait_fields_populated(self, engine):
        saturating = TrafficSpec(size_law=FixedSize(128),
                                 offered_gbps=200.0)
        report = engine.session(chain_deployment()).run(
            saturating, batch_size=32, batch_count=40
        )
        assert report.processor_queue_wait_seconds
        assert all(w >= 0.0 for w in
                   report.processor_queue_wait_seconds.values())
        assert report.total_queue_wait_seconds == pytest.approx(
            sum(report.processor_queue_wait_seconds.values())
        )
        fractions = report.queue_wait_fractions()
        # Zero-wait resources are elided from the fraction view.
        assert set(fractions) <= set(report.processor_queue_wait_seconds)
        if fractions:
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_bottleneck_is_busiest_processor(self, engine, spec):
        report = engine.session(chain_deployment(ratio=0.5)).run(
            spec, batch_size=32, batch_count=20
        )
        bottleneck = report.bottleneck_processor()
        assert bottleneck in report.processor_busy_seconds
        assert report.processor_busy_seconds[bottleneck] == \
            max(report.processor_busy_seconds.values())

    def test_bottleneck_none_without_work(self):
        from repro.sim.metrics import LatencyStats, ThroughputLatencyReport
        report = ThroughputLatencyReport(
            name="empty", offered_gbps=1.0, delivered_packets=0.0,
            delivered_bytes=0.0, dropped_packets=0.0,
            makespan_seconds=1.0, latency=LatencyStats(),
        )
        assert report.bottleneck_processor() is None
        assert report.total_queue_wait_seconds == 0.0


class TestMeasureCapacity:
    def test_saturation_gbps_parameter(self, engine, spec):
        session = engine.session(chain_deployment())
        default = session.measure_capacity(spec, batch_size=32,
                                           batch_count=20)
        explicit = session.measure_capacity(spec, batch_size=32,
                                            batch_count=20,
                                            saturation_gbps=200.0)
        assert default == explicit
        # A saturation load below the offered load never lowers the
        # probe: the saturating spec takes the max of the two.
        floor = session.measure_capacity(spec, batch_size=32,
                                         batch_count=20,
                                         saturation_gbps=1.0)
        assert floor > 0

    def test_facade_forwards_saturation_gbps(self, engine, spec):
        deployment = chain_deployment()
        via_engine = engine.measure_capacity(
            deployment, spec, batch_size=32, batch_count=20,
            saturation_gbps=150.0,
        )
        via_session = engine.session(deployment).measure_capacity(
            spec, batch_size=32, batch_count=20, saturation_gbps=150.0,
        )
        assert via_engine == via_session


class TestLegacyParitySmoke:
    """Quick tier-1 parity pin; the golden matrix is the slow suite."""

    def test_partial_offload_parity(self, platform, spec):
        deployment = chain_deployment(ratio=0.6, persistent=True)
        profile = BranchProfile.measure(
            deployment.graph.clone(), spec, sample_packets=128,
            batch_size=32,
        )
        new = SimulationEngine(platform).run(
            deployment, spec, batch_size=32, batch_count=30,
            branch_profile=profile,
        )
        old = LegacySimulationEngine(platform).run(
            deployment, spec, batch_size=32, batch_count=30,
            branch_profile=profile,
        )
        assert new.throughput_gbps == pytest.approx(
            old.throughput_gbps, rel=1e-9)
        assert new.latency.mean == pytest.approx(
            old.latency.mean, rel=1e-9)
        assert new.makespan_seconds == pytest.approx(
            old.makespan_seconds, rel=1e-9)
        for key, value in old.processor_busy_seconds.items():
            assert new.processor_busy_seconds[key] == pytest.approx(
                value, rel=1e-9)


class TestRecordedDigests:
    """Long and faulted runs, pinned to digests of recorded outputs.

    The golden parity suite compares against the legacy engine only on
    fault-free, unprotected runs; these pins also cover saturated lanes
    thousands of slots long and the fault, breaker, retry and
    deadline-drop paths.
    """

    def test_multi_gpu_saturated(self):
        deployment, spec, profile = multi_gpu_scenario()
        report = SimulationEngine().run(
            deployment, dataclasses.replace(spec, offered_gbps=200.0),
            batch_size=32, batch_count=1000, branch_profile=profile,
        )
        assert canonical_fingerprint(report) == MULTI_GPU_SATURATED

    def test_faulted_protected_run(self):
        """A gpu0 crash and a gpu1 link-degrade window under a
        breaker, a one-retry budget and deadline drops: retries,
        breaker-open and retry-exhausted requeues, degraded transfers,
        slowed kernels and queue drops all occur."""
        deployment, spec, profile = multi_gpu_scenario()
        session = SimulationEngine().session(deployment)
        faults = FaultTimeline([
            FaultSpec("gpu0", "crash", 0.002, 0.004),
            FaultSpec("gpu1", "degrade_link", 0.001, 0.006, factor=2.0),
            FaultSpec("gpu0", "slowdown", 0.005, 0.007, factor=1.5),
        ])
        overload = OverloadConfig(
            queue_limit=8, drop_policy=DeadlineDrop(), slo_ms=0.5,
            breaker=CircuitBreaker(failure_threshold=2,
                                   cooldown_windows=4.0),
            retry=RetryPolicy(budget=1),
        )
        recorder = EventRecorder()
        report = session.run(
            dataclasses.replace(spec, offered_gbps=2.4), batch_size=32,
            batch_count=300, branch_profile=profile, faults=faults,
            overload=overload, recorder=recorder,
        )
        fault_stats = session.last_fault_stats
        overload_stats = session.last_overload_stats
        assert fault_stats["degraded_transfers"] > 0
        assert fault_stats["slowed_kernels"] > 0
        assert overload_stats["queue_dropped_batches"] > 0
        assert overload_stats["breaker_trips"] > 0
        assert overload_stats["retry_attempts"] > 0
        assert overload_stats["breaker_open_requeues"] > 0
        assert overload_stats["retry_exhausted_requeues"] > 0
        # Node ids carry a process-wide NF counter ("nf0/firewall#4/rx");
        # drop it so the event stream's digest does not depend on which
        # tests ran first.
        events = re.sub(r"#\d+/", "/", recorder.to_json())
        assert canonical_fingerprint(
            [report, fault_stats, overload_stats, events]
        ) == FAULTED_PROTECTED
