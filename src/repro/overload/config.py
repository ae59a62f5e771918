"""The overload-protection bundle handed to the simulation kernel.

One :class:`OverloadConfig` collects every overload knob —
``queue_limit`` + drop policy, admission controller, circuit breaker +
retry policy, and the latency SLO goodput is judged against — plus
the :class:`ControllerState` its run starts from.  The kernel treats a
config without knobs exactly like ``overload=None``: the run is
normalized onto the historical code path and stays bit-identical to
the pre-overload kernel (the golden-parity suite pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.overload.admission import AdmissionController
from repro.overload.breaker import BreakerEntry, CircuitBreaker, RetryPolicy
from repro.overload.queues import DeadlineDrop, DropPolicy, TailDrop


@dataclass(frozen=True)
class ControllerState:
    """The overload controllers' state that crosses runs: the
    :class:`~repro.overload.SLOFeedbackAdmission` fraction and streak,
    and the :class:`~repro.overload.CircuitBreaker` table on the clock
    of the run that left it."""

    admitted_fraction: float = 1.0
    healthy_streak: int = 0
    breakers: Tuple[BreakerEntry, ...] = ()


@dataclass(frozen=True)
class OverloadConfig:
    """Overload-protection configuration for one deployment.

    ``slo_ms`` does double duty: it is the deadline
    :class:`~repro.overload.queues.DeadlineDrop` sheds against (unless
    the policy pins its own) and the bound that splits delivered
    traffic into goodput vs late-delivered in
    :class:`~repro.sim.metrics.ThroughputLatencyReport`.  ``state`` is
    the controller state the run starts from; the state it ends in is
    ``report.ledger.state``.
    """

    queue_limit: Optional[int] = None
    drop_policy: DropPolicy = field(default_factory=TailDrop)
    admission: Optional[AdmissionController] = None
    breaker: Optional[CircuitBreaker] = None
    retry: Optional[RetryPolicy] = None
    slo_ms: Optional[float] = None
    state: ControllerState = ControllerState()

    def __post_init__(self):
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        if (self.queue_limit is not None
                and isinstance(self.drop_policy, DeadlineDrop)
                and self.drop_policy.deadline_ms is None
                and self.slo_ms is None):
            raise ValueError(
                "DeadlineDrop needs a deadline: set slo_ms on the "
                "config or deadline_ms on the policy"
            )

    @property
    def is_noop(self) -> bool:
        """True when the config cannot alter the simulation: the
        kernel normalizes such configs to ``overload=None`` so the
        default path stays bit-identical to the historical kernel."""
        return (self.queue_limit is None
                and self.admission is None
                and self.breaker is None
                and self.retry is None
                and self.slo_ms is None)

    @property
    def deadline_seconds(self) -> Optional[float]:
        """The DeadlineDrop shedding bound in seconds, if resolvable."""
        if isinstance(self.drop_policy, DeadlineDrop):
            deadline_ms = self.drop_policy.deadline_ms
            if deadline_ms is None:
                deadline_ms = self.slo_ms
            return None if deadline_ms is None else deadline_ms * 1e-3
        return None

    def carry(self, report) -> "OverloadConfig":
        """This config from the state ``report``'s run left."""
        return replace(self, state=report.ledger.state)

    def observe(self, report) -> "OverloadConfig":
        """This config after its admission feedback on ``report``."""
        return self if self.admission is None else replace(
            self, state=self.admission.observe(self.state, report))


__all__ = ["ControllerState", "OverloadConfig"]
