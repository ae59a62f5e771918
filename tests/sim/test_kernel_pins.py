"""Digest pins for the kernel paths the frozen oracle cannot check.

The golden parity suite compares the kernel with the frozen pre-kernel
engine in ``tests/legacy_engine.py``, which has no bounded queues,
admission, breakers, retries or faults.  These tests pin what the
kernel does on those paths instead: for each run on the pipeline
benchmark's kernel graph (``kernel_bench_scenario``: the parallelized
five-NF chain, whose ``Tee`` duplicates traffic that the ``s0/merge``
``XorMerge`` rejoins) they compare the ``canonical_fingerprint`` of
the report, ledger included, and of its
:class:`~repro.sim.tracing.EventRecorder` events with values recorded
from the kernel.

The bounded-queue runs cut batches mid-pipeline: an interior queue
overflow drops one branch of a batch, so the nodes below the cut see
fewer packets than an intact batch (and the ``XorMerge`` one input).
``TestCutBatches`` keeps that path covered by the pins, and
``TestPinnedRunsExerciseTheirPaths`` checks that the fault and
admission runs take the paths they are meant to pin.
"""

import dataclasses

import pytest
from builders import kernel_bench_scenario

from repro.faults import FaultSpec, FaultTimeline
from repro.overload import (
    CircuitBreaker,
    ControllerState,
    DeadlineDrop,
    HeadDrop,
    OverloadConfig,
    RetryPolicy,
    SLOFeedbackAdmission,
    TailDrop,
)
from repro.runner import canonical_fingerprint
from repro.sim.engine import SimulationEngine
from repro.sim.tracing import EventRecorder

BATCH_SIZE = 64
BATCH_COUNT = 300

#: gpu0 degrades its link 1.5x and then 3x (past the guarded run's
#: retry timeout), crashes, then slows its kernels 2x; the runs span
#: about 39 ms at 1 Gbps.
FAULTS = FaultTimeline([
    FaultSpec("gpu0", "degrade_link", 0.003, 0.007, factor=1.5),
    FaultSpec("gpu0", "degrade_link", 0.007, 0.011, factor=3.0),
    FaultSpec("gpu0", "crash", 0.014, 0.022),
    FaultSpec("gpu0", "slowdown", 0.026, 0.032, factor=2.0),
])

#: name -> (offered Gbps, run options).
RUNS = {
    "tail-drop": (20.0, dict(overload=OverloadConfig(
        queue_limit=4, drop_policy=TailDrop()))),
    "head-drop": (20.0, dict(overload=OverloadConfig(
        queue_limit=4, drop_policy=HeadDrop()))),
    "deadline-drop": (20.0, dict(overload=OverloadConfig(
        queue_limit=4, drop_policy=DeadlineDrop(), slo_ms=1.0))),
    "faults-guarded": (1.0, dict(faults=FAULTS, overload=OverloadConfig(
        breaker=CircuitBreaker(), retry=RetryPolicy(timeout_stretch=2.0)))),
    "faults-unguarded": (1.0, dict(faults=FAULTS)),
    "slo-admission": (2.0, dict(overload=OverloadConfig(
        admission=SLOFeedbackAdmission(p99_ms=2.0), slo_ms=2.0,
        state=ControllerState(admitted_fraction=0.6)))),
}

#: name -> (report digest, recorder events digest).
PINS = {
    "deadline-drop": (
        "912adfabe1009b99863bd5b0057c2a2a2a4424de9bf79670bdfeb1bd678255af",
        "628d68fe4b5f48b791ae34928294f6e071a4fec2007c63e6214558b7c14500c1"),
    "faults-guarded": (
        "53cde0980a3c26b959363e98976ac7c59a3b0fd984bff2fca4452eb35603730e",
        "262b994c04c188b144446d69d8342dd147081bc4e4f9e8bab74ab8f85bfc11f7"),
    "faults-unguarded": (
        "bb9816feaf29653d778f1d256b1019b096047aa956b7d2bf3181ebe3c70ab1af",
        "c81ca4f6ce4403ff3789593ad872057d34a73c1d72e08ac1b5c27bea9ff372b9"),
    "head-drop": (
        "5cd4894e62251eebb614c544f2181246aa2580c3ee1e194102210f7e58b805ff",
        "5ebda5a9eeb9793b4938d06d4e14e4d2dd5ad0e087c5a06f8676aa6fc275382d"),
    "slo-admission": (
        "daaccceb7c0f2e25da224f0e512d5e09ad6b1d5859192be3fe2da70a3023381f",
        "f81d6687ffb9e7824fe71eb48962db9849084c0ab57ed63513f348e90bf1f2ba"),
    "tail-drop": (
        "490708f7fecdc2a865c774df081d2f0880d4010815cd7c43e43046f5d5794ab2",
        "3ea22f8d26d319ac01f509cdef1b4b8f8c89df843743a8b5d4102f98c7514214"),
}


def run_pinned(name):
    offered_gbps, options = RUNS[name]
    deployment, spec, profile = kernel_bench_scenario()
    spec = dataclasses.replace(spec, offered_gbps=offered_gbps)
    recorder = EventRecorder()
    report = SimulationEngine().session(deployment).run(
        spec, batch_size=BATCH_SIZE, batch_count=BATCH_COUNT,
        branch_profile=profile, recorder=recorder, **options)
    return report, recorder


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_its_pins(name):
    report, recorder = run_pinned(name)
    assert (canonical_fingerprint(report),
            canonical_fingerprint(recorder.to_dict())) == PINS[name]


class TestCutBatches:
    def merge_packets(self, recorder):
        return [event.packets for event in recorder.node_events
                if event.node_id == "s0/merge"]

    def intact_merge_packets(self):
        deployment, spec, profile = kernel_bench_scenario()
        recorder = EventRecorder()
        SimulationEngine().session(deployment).run(spec, batch_size=BATCH_SIZE,
                                                   batch_count=4,
                                                   branch_profile=profile,
                                                   recorder=recorder)
        (intact,) = set(self.merge_packets(recorder))
        return intact

    def test_tail_drop_cuts_a_branch_above_the_merge(self):
        _report, recorder = run_pinned("tail-drop")
        intact = self.intact_merge_packets()
        merged = self.merge_packets(recorder)
        assert max(merged) == intact
        assert min(merged) < intact


class TestPinnedRunsExerciseTheirPaths:
    def test_fault_runs_exercise_every_fault_path(self):
        guarded, _ = run_pinned("faults-guarded")
        unguarded, _ = run_pinned("faults-unguarded")
        ledger = guarded.ledger
        assert ledger.retry_attempts > 0
        assert ledger.breaker_trips > 0
        assert ledger.breaker_open.batches > 0
        assert ledger.retry_exhausted.batches > 0
        assert unguarded.ledger.fault_crash.batches > 0
        for report in (guarded, unguarded):
            assert report.ledger.degraded_transfers > 0
            assert report.ledger.slowed_kernels > 0

    def test_admission_sheds(self):
        report, _ = run_pinned("slo-admission")
        assert report.ledger.shed_batches > 0
