"""The shared epoch loop, pinned to digests of recorded outputs.

``AdaptiveRuntime`` and ``ResilientRuntime`` run the same loop: deploy,
take the plan's session and race profile, attach arrivals, run the
epoch, thread the overload controllers' state, record history.
These three runs cover the loop under each runtime's trigger, and the
kernel's offload dispatch with and without a breaker and retry budget.
Any change to that plumbing must leave every digest unchanged, and
every epoch must replay from its inputs.
"""

import dataclasses

import pytest
from builders import (
    fault_stats,
    ledgerless_fingerprint,
    overload_stats,
)

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
#: its own fault-only dispatch.  Reports have since gained a ledger, so
#: these hash the records without it (``ledgerless_fingerprint``); the
#: ``*_LEDGERS`` digests pin the epochs' ledgers.
ADAPTIVE_SHIFT = \
    "7ad0b16ce0c7ca6b75bd211cae227956d7cb4f13d45ae7b89fe06650a05cb2b6"
ADAPTIVE_SHIFT_LEDGERS = \
    "8ff7da716f5846d770257339177ffd08f94b3c699f0d5b2a6d525458a842aabb"
#: ``RESILIENT_GUARDED`` also hashes the trace's span names.  It was
#: re-recorded when the loop stopped profiling each plan it deployed
#: (the plan carries its deploy's race profile), after checking that
#: the old digest with those three ``profile`` span names masked out
#: equals the new one.
RESILIENT_GUARDED = \
    "6fcf46ce68914113dca1f6673beb6e556f82b0ca4fe56a0678968a7abd879ad2"
RESILIENT_GUARDED_LEDGERS = \
    "1ea5641258164c3f83b169e92c14d0dbd2d63f8db07fca275b4206ce9aac6ce3"
RESILIENT_UNGUARDED = \
    "bb28944f1861049abc021f25f4beabd7b469066fe15328f9dcdee410d3d439d5"
RESILIENT_UNGUARDED_LEDGERS = \
    "0d564011171a194b9b244c5711679dc9479bedca44b9694f7bc369c1bcb4cca1"

BATCH_COUNT = 40


def run_epochs(runtime, specs):
    """Step ``runtime`` through ``specs``; one record per epoch.

    Each record keeps the fault and overload dicts sessions used to
    hold per run, rebuilt from the epoch's ledger (``None`` when the
    epoch saw no fault timeline or no overload protection).  Node ids
    carry a process-wide NF counter, so nothing keyed by node goes in;
    processors and reports do not depend on it.
    """
    faults = getattr(runtime, "faults", None)
    protected = (runtime.overload is not None
                 and not runtime.overload.is_noop)
    records = []
    for spec in specs:
        start = getattr(runtime, "clock", 0.0)
        result = runtime.step(spec, batch_count=BATCH_COUNT)
        faulted = (faults is not None
                   and not faults.shifted(-start).is_empty)
        records.append({
            "epoch": result.epoch,
            "drift": result.drift,
            "replanned": result.replanned,
            "report": result.report,
            "devices": runtime.plan.deployment.mapping.processors_used(),
            "fault_stats": fault_stats(result.report, faulted),
            "overload_stats": overload_stats(result.report, protected),
        })
    return records


def ledgers(records):
    return canonical_fingerprint([r["report"].ledger for r in records])


def resilient_spec():
    return TrafficSpec(size_law=FixedSize(512), offered_gbps=40.0,
                       seed=5)


def epoch_window(spec):
    return BATCH_COUNT * 64 * spec.mean_packet_interval()


def guarded_runtime(trace=None):
    """A gpu0 crash over epochs 2-3 and a gpu1 link degrade, under a
    breaker, a one-retry budget and deadline drops."""
    spec = resilient_spec()
    window = epoch_window(spec)
    faults = FaultTimeline([
        FaultSpec("gpu0", "crash", window, 2.5 * window),
        FaultSpec("gpu1", "degrade_link", 0.0, 6 * window, factor=3.0),
    ])
    overload = OverloadConfig(
        queue_limit=8, drop_policy=DeadlineDrop(), slo_ms=2.0,
        breaker=CircuitBreaker(failure_threshold=2, cooldown_windows=4.0),
        retry=RetryPolicy(budget=1, timeout_stretch=4.0),
    )
    sfc = ServiceFunctionChain([make_nf("ipsec")],
                               name="epoch-resilient")
    return ResilientRuntime(sfc, spec, faults, readmit_epochs=1,
                            overload=overload, trace=trace)


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
        assert ledgerless_fingerprint(
            [records, runtime.replans,
             runtime.overload.state.admitted_fraction]
        ) == ADAPTIVE_SHIFT
        assert ledgers(records) == ADAPTIVE_SHIFT_LEDGERS

    def test_resilient_guarded_dispatch(self):
        """Under ``guarded_runtime``: epoch 1's batches that queue into
        the crash retry, exhaust and trip the breaker; epoch 2 replans
        onto gpu1 (degraded transfers); epoch 5 re-admits gpu0 after
        one healthy epoch."""
        spec = resilient_spec()
        window = epoch_window(spec)
        trace = Trace(name="epoch-loop")
        runtime = guarded_runtime(trace)
        records = run_epochs(runtime, [spec] * 6)
        assert [r["replanned"] for r in records] == \
            [False, True, False, False, True, False]
        first = records[0]["report"].ledger
        assert first.retry_attempts > 0
        assert first.retry_exhausted.batches > 0
        assert first.breaker_trips > 0
        assert records[1]["report"].ledger.degraded_transfers > 0
        assert runtime.excluded == set()
        assert runtime.clock == pytest.approx(6 * window)
        assert len(trace.spans_named("replan")) == 2
        counters = trace.metrics.snapshot()["counters"]
        assert counters["fault.replans"] == 2
        assert ledgerless_fingerprint(
            [records, runtime.replans, runtime.clock, counters,
             [span.name for span in trace.spans]]
        ) == RESILIENT_GUARDED
        assert ledgers(records) == RESILIENT_GUARDED_LEDGERS
        # One functional profiling pass per deploy (the first and two
        # replans): the epochs run on the plan's own race profile.
        assert len(trace.spans_named("profile")) == 3

    def test_resilient_epochs_replay_from_their_inputs(self):
        """Each epoch's report is a function of the epoch's inputs: its
        session and profile, the fault timeline re-based to the epoch,
        and the config carrying the controller state the previous
        epoch left.  Replaying last epoch first shows no run depends
        on the runs before it."""
        spec = resilient_spec()
        runtime = guarded_runtime()
        epochs = []
        for _ in range(6):
            start, overload = runtime.clock, runtime.overload
            report = runtime.step(spec, batch_count=BATCH_COUNT).report
            epochs.append((runtime.session, runtime.plan.race_profile,
                           runtime.faults.shifted(-start), overload,
                           report))
        assert any(o.state.breakers for _s, _p, _f, o, _r in epochs)
        for session, profile, faults, overload, report in epochs[::-1]:
            replayed = session.run(spec, batch_size=runtime.batch_size,
                                   batch_count=BATCH_COUNT,
                                   branch_profile=profile, faults=faults,
                                   overload=overload)
            assert canonical_fingerprint(replayed) == \
                canonical_fingerprint(report)

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
        assert records[0]["report"].ledger.fault_crash.batches > 0
        assert ledgerless_fingerprint(
            [records, runtime.replans, runtime.clock]
        ) == RESILIENT_UNGUARDED
        assert ledgers(records) == RESILIENT_UNGUARDED_LEDGERS


class TestRejectedEpoch:
    """An epoch of fewer than one batch raises the session's
    ``ValueError`` before the runtime moves: its epoch counter, clock,
    history, replan count, cooldown and plan stay as they were, and
    the next valid epoch is the one a fresh runtime would run."""

    COUNTS = (0, -40)

    @staticmethod
    def reject(runtime, spec, count):
        with pytest.raises(ValueError,
                           match=f"^batch_count must be at least 1, "
                                 f"got {count}$"):
            runtime.step(spec, batch_count=count)

    def test_resilient_runtime_stays_put(self):
        spec = resilient_spec()

        def fresh():
            sfc = ServiceFunctionChain([make_nf("ipsec")],
                                       name="epoch-rejected")
            return ResilientRuntime(sfc, spec, FaultTimeline([]))

        runtime = fresh()
        plan = runtime.plan
        for count in self.COUNTS:
            self.reject(runtime, spec, count)
            assert runtime._epoch == 0
            assert runtime.clock == 0.0
            assert runtime.history == []
            assert runtime.replans == 0
            assert runtime.plan is plan
        result = runtime.step(spec, batch_count=BATCH_COUNT)
        reference = fresh().step(spec, batch_count=BATCH_COUNT)
        assert result.epoch == 1
        assert runtime.clock == pytest.approx(epoch_window(spec))
        assert canonical_fingerprint(result.report) == \
            canonical_fingerprint(reference.report)

    def test_adaptive_runtime_keeps_its_cooldown(self):
        """After a drift replan the cooldown holds one epoch; a rejected
        epoch of the old traffic must not use it up."""
        small = TrafficSpec(size_law=FixedSize(64), offered_gbps=4.0,
                            seed=4)
        large = dataclasses.replace(small, size_law=FixedSize(1500))
        sfc = ServiceFunctionChain([make_nf("firewall"),
                                    make_nf("ipsec")],
                                   name="epoch-rejected-adaptive")
        runtime = AdaptiveRuntime(NFCompass(), sfc, small, batch_size=32,
                                  cooldown_epochs=1)
        assert runtime.step(large, batch_count=BATCH_COUNT).replanned
        plan = runtime.plan
        for count in self.COUNTS:
            self.reject(runtime, small, count)
            assert runtime._cooldown == 1
            assert runtime._epoch == 1
            assert runtime.replans == 1
            assert len(runtime.history) == 1
            assert runtime.plan is plan
        # The cooldown still holds off the shift back.
        held = runtime.step(small, batch_count=BATCH_COUNT)
        assert (held.epoch, held.replanned) == (2, False)

    def test_adaptive_runtime_does_not_replan(self):
        """A rejected epoch whose traffic drifted must not re-deploy."""
        small = TrafficSpec(size_law=FixedSize(64), offered_gbps=4.0,
                            seed=4)
        large = dataclasses.replace(small, size_law=FixedSize(1500))
        sfc = ServiceFunctionChain([make_nf("firewall")],
                                   name="epoch-rejected-drift")
        runtime = AdaptiveRuntime(NFCompass(), sfc, small, batch_size=32)
        plan = runtime.plan
        for count in self.COUNTS:
            self.reject(runtime, large, count)
            assert runtime.plan is plan
            assert (runtime._epoch, runtime.replans,
                    runtime._cooldown) == (0, 0, 0)
            assert runtime.history == []
