"""Admission control: shed load before it queues.

An :class:`AdmissionController` decides per batch, at its arrival
time, whether the batch enters the pipeline at all.  Rejected batches
are *shed* (counted separately from queue-overflow drops — shedding is
a policy decision, dropping is a capacity failure).  Controllers are
frozen values: a run decides through an admit function built for it,
and what crosses runs is the :class:`~repro.overload.ControllerState`
its config carries.  The epoch loops
(:class:`~repro.core.adaptation.AdaptiveRuntime`,
:class:`~repro.core.multi.MultiTenantScheduler`,
:class:`~repro.faults.runtime.ResilientRuntime`) feed each epoch's
:class:`~repro.sim.metrics.ThroughputLatencyReport` through
:meth:`AdmissionController.observe`, a pure step from (state, report)
to the next state, so SLO feedback carries from one epoch to the next.

Both controllers are fully deterministic: the token bucket replenishes
on the simulated arrival clock, and the feedback controller thins
traffic with an error-diffusion accumulator instead of coin flips, so
a sweep over them stays serial == parallel byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable


@runtime_checkable
class AdmissionController(Protocol):
    """The admission decision surface the kernel and loops call."""

    def gate(self, state, mean_batch_gap: float):
        """One run's ``admit(arrival) -> bool`` from ``state``, given
        the spec's mean seconds between batches."""
        ...  # pragma: no cover - protocol

    def observe(self, state, report):
        """``state`` after one epoch's report is fed back."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class TokenBucketAdmission:
    """Classic token bucket on the simulated arrival clock.

    ``rate_fraction`` scales the refill rate relative to the offered
    batch rate (1.0 admits exactly the offered rate in the long run,
    0.5 sheds every other batch under sustained load); ``burst``
    batches may pass back to back.  Every run's bucket starts full.
    """

    rate_fraction: float = 1.0
    burst: int = 8

    def __post_init__(self):
        if not self.rate_fraction > 0:
            raise ValueError("rate_fraction must be positive")
        if not self.burst >= 1:
            raise ValueError("burst must be at least 1")

    def gate(self, state, mean_batch_gap: float):
        rate = (self.rate_fraction / mean_batch_gap
                if mean_batch_gap > 0 else float("inf"))
        burst = float(self.burst)
        tokens, last_arrival = burst, 0.0

        def admit(arrival: float) -> bool:
            nonlocal tokens, last_arrival
            elapsed = max(0.0, arrival - last_arrival)
            last_arrival = arrival
            tokens = min(burst, tokens + elapsed * rate)
            if tokens >= 1.0:
                tokens -= 1.0
                return True
            return False

        return admit

    def observe(self, state, report):
        """Token buckets are open loop: the state passes through."""
        return state


@dataclass(frozen=True)
class SLOFeedbackAdmission:
    """Hysteretic AIMD shedding driven by the rolling p99.

    Watches each epoch's p99 latency (via :meth:`observe`): a p99 above
    ``p99_ms`` multiplies the admitted fraction by ``backoff``
    (multiplicative decrease, floored at ``min_fraction``); only after
    ``healthy_epochs`` *consecutive* compliant epochs does the fraction
    recover by ``recover_step`` (additive increase) — the hysteresis
    that keeps a marginal system from oscillating between shedding and
    re-overloading every epoch.

    Per-batch admission thins deterministically: an error-diffusion
    accumulator admits exactly ``round(fraction * n)`` of any ``n``
    consecutive batches, with the admitted ones spread evenly.  The
    accumulator starts at zero every run, so a run's admission
    pattern depends on the fraction alone.
    """

    p99_ms: float
    backoff: float = 0.7
    recover_step: float = 0.1
    min_fraction: float = 0.1
    healthy_epochs: int = 2

    def __post_init__(self):
        if not self.p99_ms > 0:
            raise ValueError("p99_ms must be positive")
        if not 0.0 < self.backoff < 1.0:
            raise ValueError("backoff must be in (0, 1)")
        if not self.recover_step > 0:
            raise ValueError("recover_step must be positive")
        if not 0.0 < self.min_fraction <= 1.0:
            raise ValueError("min_fraction must be in (0, 1]")
        if not self.healthy_epochs >= 1:
            raise ValueError("healthy_epochs must be at least 1")

    def gate(self, state, mean_batch_gap: float):
        fraction, accumulator = state.admitted_fraction, 0.0

        def admit(arrival: float) -> bool:
            nonlocal accumulator
            accumulator += fraction
            if accumulator >= 1.0 - 1e-12:
                accumulator -= 1.0
                return True
            return False

        return admit

    def observe(self, state, report):
        fraction = state.admitted_fraction
        if report.latency.p99 * 1e3 > self.p99_ms:
            return replace(state, healthy_streak=0,
                           admitted_fraction=max(self.min_fraction,
                                                 fraction * self.backoff))
        streak = state.healthy_streak + 1
        if streak >= self.healthy_epochs and fraction < 1.0:
            return replace(state, healthy_streak=0,
                           admitted_fraction=min(
                               1.0, fraction + self.recover_step))
        return replace(state, healthy_streak=streak)


__all__ = [
    "AdmissionController",
    "SLOFeedbackAdmission",
    "TokenBucketAdmission",
]
