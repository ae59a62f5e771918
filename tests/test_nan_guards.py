"""Every constructor guard rejects a NaN.

``nan <= 0`` and ``nan < 1`` are both false, so a guard written as
``if x <= 0: raise`` lets a NaN through, and the run then computes
with it (a NaN burst factor prints a NaN latency; a NaN SLO counts
every batch on time).  Each guard is written so that a NaN fails it,
and ``math.inf`` stays valid wherever it was valid.
"""

import math

import pytest

from repro.core.adaptation import AdaptiveRuntime
from repro.core.compass import NFCompass
from repro.faults.spec import FaultSpec, FaultTimeline
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.overload import (
    CircuitBreaker,
    DeadlineDrop,
    OverloadConfig,
    RetryPolicy,
    SLOFeedbackAdmission,
    TokenBucketAdmission,
)
from repro.traffic.arrivals import MMPP, DiurnalRamp
from repro.traffic.generator import TrafficSpec

NAN = math.nan
INF = math.inf

NAN_FIELDS = {
    "MMPP.burst_factor": lambda: MMPP(burst_factor=NAN),
    "MMPP.cycle_batches": lambda: MMPP(cycle_batches=NAN),
    "DiurnalRamp.period_batches": lambda: DiurnalRamp(period_batches=NAN),
    "OverloadConfig.slo_ms": lambda: OverloadConfig(slo_ms=NAN),
    "OverloadConfig.queue_limit": lambda: OverloadConfig(queue_limit=NAN),
    "DeadlineDrop.deadline_ms": lambda: DeadlineDrop(deadline_ms=NAN),
    "SLOFeedbackAdmission.p99_ms":
        lambda: SLOFeedbackAdmission(p99_ms=NAN),
    "SLOFeedbackAdmission.recover_step":
        lambda: SLOFeedbackAdmission(p99_ms=1.0, recover_step=NAN),
    "SLOFeedbackAdmission.healthy_epochs":
        lambda: SLOFeedbackAdmission(p99_ms=1.0, healthy_epochs=NAN),
    "TokenBucketAdmission.rate_fraction":
        lambda: TokenBucketAdmission(rate_fraction=NAN),
    "TokenBucketAdmission.burst": lambda: TokenBucketAdmission(burst=NAN),
    "CircuitBreaker.failure_threshold":
        lambda: CircuitBreaker(failure_threshold=NAN),
    "CircuitBreaker.cooldown_windows":
        lambda: CircuitBreaker(cooldown_windows=NAN),
    "CircuitBreaker.cooldown_s": lambda: CircuitBreaker(cooldown_s=NAN),
    "RetryPolicy.budget": lambda: RetryPolicy(budget=NAN),
    "RetryPolicy.backoff_base": lambda: RetryPolicy(backoff_base=NAN),
    "RetryPolicy.backoff_cap": lambda: RetryPolicy(backoff_cap=NAN),
    "RetryPolicy.timeout_stretch":
        lambda: RetryPolicy(timeout_stretch=NAN),
    "FaultSpec.factor":
        lambda: FaultSpec("gpu0", "slowdown", 0.0, 1.0, factor=NAN),
    "FaultSpec.end": lambda: FaultSpec("gpu0", "crash", 0.0, NAN),
    "FaultTimeline.requeue_penalty":
        lambda: FaultTimeline((), requeue_penalty=NAN),
    "FaultTimeline.seeded.horizon":
        lambda: FaultTimeline.seeded(0, ["gpu0"], NAN, fault_rate=0.0),
    "FaultTimeline.seeded.fault_rate":
        lambda: FaultTimeline.seeded(0, ["gpu0"], 1.0, fault_rate=NAN),
}


@pytest.mark.parametrize("field", sorted(NAN_FIELDS))
def test_nan_is_rejected(field):
    with pytest.raises(ValueError):
        NAN_FIELDS[field]()


def adaptive_runtime(drift_threshold):
    return AdaptiveRuntime(NFCompass(),
                           ServiceFunctionChain([make_nf("firewall")]),
                           TrafficSpec(), drift_threshold=drift_threshold)


#: Values that must be finite, by field and value.  A NaN phase spaced
#: a ramp's batches 2.253 us apart, a quarter of the configured load
#: (0.563 us); an infinite one raised ``math domain error`` inside
#: ``batch_arrivals``, at simulation time; a NaN drift threshold never
#: re-planned.
NON_FINITE_FIELDS = {
    ("DiurnalRamp.phase", "nan"): lambda: DiurnalRamp(phase=NAN),
    ("DiurnalRamp.phase", "inf"): lambda: DiurnalRamp(phase=INF),
    ("DiurnalRamp.phase_per_epoch", "nan"):
        lambda: DiurnalRamp(phase_per_epoch=NAN),
    ("DiurnalRamp.phase_per_epoch", "-inf"):
        lambda: DiurnalRamp(phase_per_epoch=-INF),
    ("AdaptiveRuntime.drift_threshold", "nan"):
        lambda: adaptive_runtime(NAN),
    ("AdaptiveRuntime.drift_threshold", "inf"):
        lambda: adaptive_runtime(INF),
}


@pytest.mark.parametrize("field, value", sorted(NON_FINITE_FIELDS))
def test_non_finite_is_rejected(field, value):
    name = field.split(".")[1].replace("_", "[ _]")
    with pytest.raises(ValueError, match=f"{name} must be .*finite"):
        NON_FINITE_FIELDS[field, value]()


@pytest.mark.parametrize("fault_rate", [-1.0, INF],
                         ids=["negative", "infinite"])
def test_seeded_fault_rate_must_be_finite_and_non_negative(fault_rate):
    """A negative rate used to return an empty timeline, and ``inf``
    never returned (``inf - 1.0`` is ``inf``)."""
    with pytest.raises(ValueError, match="fault_rate"):
        FaultTimeline.seeded(0, ["gpu0"], 1.0, fault_rate=fault_rate)


INF_FIELDS = {
    "MMPP.cycle_batches": lambda: MMPP(cycle_batches=INF),
    "OverloadConfig.slo_ms": lambda: OverloadConfig(slo_ms=INF),
    "CircuitBreaker.cooldown_s": lambda: CircuitBreaker(cooldown_s=INF),
    "RetryPolicy.backoff_cap": lambda: RetryPolicy(backoff_cap=INF),
    "RetryPolicy.timeout_stretch": lambda: RetryPolicy(),
    "FaultSpec.end": lambda: FaultSpec("gpu0", "crash", 0.0),
    "FaultTimeline.requeue_penalty":
        lambda: FaultTimeline((), requeue_penalty=INF),
}


@pytest.mark.parametrize("field", sorted(INF_FIELDS))
def test_infinity_stays_valid(field):
    INF_FIELDS[field]()
