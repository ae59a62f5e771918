"""Overload protection: bounded queues, admission control, breakers.

The paper sizes its deployments for steady offered load; PR 9's bursty
arrival clocks showed the same mean rate can grow queues without
bound, and PR 8's fault timelines let degraded devices keep absorbing
work they can no longer serve.  This package supplies the three
standard production defences, all deterministic over the simulated
clock:

- bounded per-resource queues with pluggable drop policies
  (:mod:`repro.overload.queues`);
- admission controllers that shed load before it queues
  (:mod:`repro.overload.admission`);
- circuit-broken, retry-budgeted offload dispatch
  (:mod:`repro.overload.breaker`).

Everything is bundled into an :class:`OverloadConfig` and handed to
:meth:`repro.sim.kernel.SimulationSession.run` (or any epoch loop via
its ``overload=`` argument).  A no-op config is normalized away, so
the unprotected path stays bit-identical to the historical kernel.
Configs and controllers are frozen values and the state that crosses
runs is an explicit :class:`ControllerState`.
"""

from repro.overload.admission import (
    AdmissionController,
    SLOFeedbackAdmission,
    TokenBucketAdmission,
)
from repro.overload.breaker import CircuitBreaker, RetryPolicy
from repro.overload.config import ControllerState, OverloadConfig
from repro.overload.queues import (
    DROP_POLICY_NAMES,
    DeadlineDrop,
    DropPolicy,
    HeadDrop,
    TailDrop,
    parse_drop_policy,
)

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "ControllerState",
    "DROP_POLICY_NAMES",
    "DeadlineDrop",
    "DropPolicy",
    "HeadDrop",
    "OverloadConfig",
    "RetryPolicy",
    "SLOFeedbackAdmission",
    "TailDrop",
    "TokenBucketAdmission",
    "parse_drop_policy",
]
