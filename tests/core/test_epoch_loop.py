"""The shared epoch loop, pinned to digests of recorded outputs.

``AdaptiveRuntime`` and ``ResilientRuntime`` run the same loop: deploy
(reusing the capacity race's session), profile, attach arrivals, run
the epoch, feed admission control, record history.  These three runs
cover the loop under each runtime's trigger, and the kernel's offload
dispatch with and without a breaker and retry budget.  Any change to
that plumbing must leave every digest unchanged.
"""

import dataclasses

import pytest

from repro.core.adaptation import AdaptiveRuntime
from repro.core.compass import NFCompass
from repro.faults import FaultSpec, FaultTimeline, ResilientRuntime
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.obs import Trace
from repro.overload import (
    CircuitBreaker,
    DeadlineDrop,
    OverloadConfig,
    RetryPolicy,
    SLOFeedbackAdmission,
)
from repro.runner import canonical_fingerprint
from repro.traffic.arrivals import Poisson
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

#: ``canonical_fingerprint`` of each run's epoch records, recorded
#: while the two runtimes still carried their own loops and the kernel
#: its own fault-only dispatch.
ADAPTIVE_SHIFT = \
    "7ad0b16ce0c7ca6b75bd211cae227956d7cb4f13d45ae7b89fe06650a05cb2b6"
RESILIENT_GUARDED = \
    "71b724f8722d69d9f45e0c63aaab888f1f154a46a6deeb01aed203e2c9f78098"
RESILIENT_UNGUARDED = \
    "bb28944f1861049abc021f25f4beabd7b469066fe15328f9dcdee410d3d439d5"

BATCH_COUNT = 40


def run_epochs(runtime, specs):
    """Step ``runtime`` through ``specs``; one record per epoch.

    Each record reads the session's run ledgers before the next epoch
    overwrites them.  Node ids carry a process-wide NF counter, so
    nothing keyed by node goes in; processors and reports do not
    depend on it.
    """
    records = []
    for spec in specs:
        result = runtime.step(spec, batch_count=BATCH_COUNT)
        records.append({
            "epoch": result.epoch,
            "drift": result.drift,
            "replanned": result.replanned,
            "report": result.report,
            "devices": runtime.plan.deployment.mapping.processors_used(),
            "fault_stats": runtime.session.last_fault_stats,
            "overload_stats": runtime.session.last_overload_stats,
        })
    return records


def resilient_spec():
    return TrafficSpec(size_law=FixedSize(512), offered_gbps=40.0,
                       seed=5)


def epoch_window(spec):
    return BATCH_COUNT * 64 * spec.mean_packet_interval()


class TestEpochLoopDigests:
    def test_adaptive_size_shift(self):
        """64 B -> 1500 B -> 64 B under Poisson arrivals and SLO
        feedback: a drift replan, a shift back held off by the
        cooldown, then the replan it deferred; the admission
        controller sheds after the 1500 B epoch misses the p99."""
        small = TrafficSpec(size_law=FixedSize(64), offered_gbps=4.0,
                            seed=4)
        large = dataclasses.replace(small, size_law=FixedSize(1500))
        admission = SLOFeedbackAdmission(p99_ms=0.5)
        overload = OverloadConfig(slo_ms=0.5, admission=admission)
        sfc = ServiceFunctionChain([make_nf("firewall"),
                                    make_nf("ipsec")],
                                   name="epoch-adaptive")
        runtime = AdaptiveRuntime(NFCompass(), sfc, small, batch_size=32,
                                  cooldown_epochs=1,
                                  arrivals=Poisson(seed=6),
                                  overload=overload)
        records = run_epochs(runtime, [small, large, small, small])
        assert [r["replanned"] for r in records] == \
            [False, True, False, True]
        assert records[2]["drift"] > runtime.drift_threshold
        assert records[3]["report"].shed_packets > 0
        assert runtime.history[-1].epoch == 4
        assert canonical_fingerprint(
            [records, runtime.replans, admission.fraction]
        ) == ADAPTIVE_SHIFT

    def test_resilient_guarded_dispatch(self):
        """A gpu0 crash over epochs 2-3 and a gpu1 link degrade under a
        breaker, a one-retry budget and deadline drops: epoch 1's
        batches that queue into the crash retry, exhaust and trip the
        breaker; epoch 2 replans onto gpu1 (degraded transfers);
        epoch 5 re-admits gpu0 after one healthy epoch."""
        spec = resilient_spec()
        window = epoch_window(spec)
        faults = FaultTimeline([
            FaultSpec("gpu0", "crash", window, 2.5 * window),
            FaultSpec("gpu1", "degrade_link", 0.0, 6 * window,
                      factor=3.0),
        ])
        overload = OverloadConfig(
            queue_limit=8, drop_policy=DeadlineDrop(), slo_ms=2.0,
            breaker=CircuitBreaker(failure_threshold=2,
                                   cooldown_windows=4.0),
            retry=RetryPolicy(budget=1, timeout_stretch=4.0),
        )
        trace = Trace(name="epoch-loop")
        sfc = ServiceFunctionChain([make_nf("ipsec")],
                                   name="epoch-resilient")
        runtime = ResilientRuntime(sfc, spec, faults, readmit_epochs=1,
                                   overload=overload, trace=trace)
        records = run_epochs(runtime, [spec] * 6)
        assert [r["replanned"] for r in records] == \
            [False, True, False, False, True, False]
        first = records[0]["overload_stats"]
        assert first["retry_attempts"] > 0
        assert first["retry_exhausted_requeues"] > 0
        assert first["breaker_trips"] > 0
        assert records[1]["fault_stats"]["degraded_transfers"] > 0
        assert runtime.excluded == set()
        assert runtime.clock == pytest.approx(6 * window)
        assert len(trace.spans_named("replan")) == 2
        counters = trace.metrics.snapshot()["counters"]
        assert counters["fault.replans"] == 2
        assert canonical_fingerprint(
            [records, runtime.replans, runtime.clock, counters,
             [span.name for span in trace.spans]]
        ) == RESILIENT_GUARDED

    def test_resilient_fault_only_requeues(self):
        """No breaker, no retry policy: epoch 1's batches that queue
        into gpu0's crash re-queue to the host at submission; epoch 2
        replans onto gpu1 and epoch 4 re-admits gpu0."""
        spec = resilient_spec()
        window = epoch_window(spec)
        faults = FaultTimeline([
            FaultSpec("gpu0", "crash", window, 1.5 * window),
        ])
        sfc = ServiceFunctionChain([make_nf("ipsec")],
                                   name="epoch-faults")
        runtime = ResilientRuntime(sfc, spec, faults, readmit_epochs=1)
        records = run_epochs(runtime, [spec] * 4)
        assert [r["replanned"] for r in records] == \
            [False, True, False, True]
        assert records[0]["fault_stats"]["requeued_batches"] > 0
        assert canonical_fingerprint(
            [records, runtime.replans, runtime.clock]
        ) == RESILIENT_UNGUARDED
