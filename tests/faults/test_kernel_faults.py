"""Event-kernel fault semantics: requeue, degradation, zero-cost path.

The acceptance bar for the fault threading is that a run with no
faults (``faults=None`` or an empty timeline) is *byte-identical* to
the pre-fault engine — same report object state, same busy-second
dicts — and that under faults every batch is still accounted for
(delivered + dropped == injected).
"""

import pytest

from repro.faults import FaultSpec, FaultTimeline, empty_timeline, single_crash
from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.obs import Trace, use_trace
from repro.sim.mapping import Deployment, Mapping
from repro.sim.metrics import RunLedger
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                       seed=11)


@pytest.fixture
def session(engine):
    graph = ServiceFunctionChain(
        [make_nf("ipsec"), make_nf("dpi")]
    ).concatenated_graph()
    mapping = Mapping.fixed_ratio(
        graph, 0.6, cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"],
        gpus=["gpu0", "gpu1"],
    )
    deployment = Deployment(graph, mapping, persistent_kernel=True,
                            name="faults-kernel")
    return engine.session(deployment)


def run(session, spec, faults=None, batches=30):
    return session.run(spec, batch_size=32, batch_count=batches,
                       faults=faults)


class TestZeroCostPath:
    def test_empty_timeline_is_byte_identical(self, session, spec):
        baseline = run(session, spec)
        assert baseline.ledger == RunLedger(
            peak_rate_gbps=baseline.ledger.peak_rate_gbps)
        empty = run(session, spec, faults=empty_timeline())
        assert empty == baseline
        assert empty.processor_busy_seconds == baseline.processor_busy_seconds
        assert empty.processor_queue_wait_seconds == \
            baseline.processor_queue_wait_seconds

    def test_fault_on_other_device_leaves_run_identical(self, session,
                                                        spec):
        baseline = run(session, spec)
        # gpu7 is not in the mapping, so no step ever consults it.
        other = run(session, spec, faults=single_crash("gpu7", 0.0))
        assert other == baseline


class TestRequeue:
    def test_crash_requeues_to_host_and_conserves(self, session, spec):
        baseline = run(session, spec)
        crashed = run(session, spec,
                      faults=single_crash("gpu0", 0.0))
        requeues = crashed.ledger.fault_crash
        assert requeues.batches > 0
        assert requeues.host_seconds > 0
        injected = crashed.delivered_packets + crashed.dropped_packets
        base_injected = (baseline.delivered_packets
                         + baseline.dropped_packets)
        assert injected == pytest.approx(base_injected)
        # Re-queued work lands on host cores, not the crashed GPU.
        assert crashed.processor_busy_seconds.get("gpu0", 0.0) == 0.0
        assert crashed.throughput_gbps < baseline.throughput_gbps

    def test_requeue_penalty_scales_host_time(self, session, spec):
        cheap = FaultTimeline([FaultSpec("gpu0", "crash", 0.0)],
                              requeue_penalty=1.0)
        cheap_seconds = run(session, spec, faults=cheap) \
            .ledger.fault_crash.host_seconds
        dear = FaultTimeline([FaultSpec("gpu0", "crash", 0.0)],
                             requeue_penalty=3.0)
        dear_seconds = run(session, spec, faults=dear) \
            .ledger.fault_crash.host_seconds
        assert dear_seconds == pytest.approx(3.0 * cheap_seconds)

    def test_mid_run_crash_partially_requeues(self, session, spec):
        full = run(session, spec, faults=single_crash("gpu0", 0.0))
        full_requeued = full.ledger.fault_crash.batches
        # Offload legs become ready as their batches arrive, so a crash
        # starting midway through the arrival window catches only the
        # later batches.
        midpoint = spec.mean_packet_interval() * 32 * 30 / 2
        late = run(session, spec,
                   faults=single_crash("gpu0", midpoint))
        late_requeued = late.ledger.fault_crash.batches
        assert 0 < late_requeued <= full_requeued
        conserved = late.delivered_packets + late.dropped_packets
        assert conserved == pytest.approx(30 * 32)


class TestDegradation:
    def test_link_degradation_counts_and_slows(self, session, spec):
        baseline = run(session, spec)
        degraded = run(session, spec, faults=FaultTimeline([
            FaultSpec("gpu0", "degrade_link", 0.0, factor=4.0),
            FaultSpec("gpu1", "degrade_link", 0.0, factor=4.0),
        ]))
        assert degraded.ledger.degraded_transfers > 0
        assert degraded.ledger.fault_crash.batches == 0
        # Every DMA slot stretches by the factor, so the pcie lanes
        # accumulate exactly 4x the baseline busy seconds.
        def dma_busy(report):
            return sum(seconds for resource, seconds
                       in report.processor_busy_seconds.items()
                       if resource.startswith("pcie:"))
        assert dma_busy(degraded) == pytest.approx(4.0 * dma_busy(baseline))

    def test_slowdown_counts_and_inflates_gpu_time(self, session, spec):
        baseline = run(session, spec)
        slowed = run(session, spec, faults=FaultTimeline([
            FaultSpec("gpu0", "slowdown", 0.0, factor=3.0),
            FaultSpec("gpu1", "slowdown", 0.0, factor=3.0),
        ]))
        assert slowed.ledger.slowed_kernels > 0
        gpu_busy = sum(seconds
                       for device, seconds in slowed.processor_busy_seconds.items()
                       if device.startswith("gpu"))
        gpu_base = sum(seconds
                       for device, seconds
                       in baseline.processor_busy_seconds.items()
                       if device.startswith("gpu"))
        assert gpu_busy > gpu_base

    def test_fault_counters_reach_the_trace(self, session, spec):
        trace = Trace(name="fault-counters")
        with use_trace(trace):
            run(session, spec, faults=single_crash("gpu0", 0.0),
                batches=10)
        counters = trace.metrics.snapshot()["counters"]
        assert counters["fault.requeued_batches"] > 0
