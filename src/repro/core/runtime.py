"""The unified runtime surface and the shared epoch loop.

Three epoch-driven runtimes —
:class:`~repro.core.adaptation.AdaptiveRuntime` (traffic drift),
:class:`~repro.core.multi.MultiTenantScheduler` (co-run interference)
and :class:`~repro.faults.runtime.ResilientRuntime` (device faults) —
share one surface, the :class:`Runtime` protocol:

- ``step(spec, batch_count) -> EpochResult`` — process one traffic
  epoch, re-planning first when the runtime's trigger fires;
- ``plan`` — the currently deployed
  :class:`~repro.core.compass.CompassPlan` (or plans);
- ``session`` — the reusable
  :class:`~repro.sim.kernel.SimulationSession` simulating it.

The two runtimes that re-plan also share one loop, :class:`EpochLoop`:
deploy, reuse the capacity race's session, measure the deploy-time
branch profile, and per epoch attach arrivals, simulate, thread the
overload controllers' state (explicit, on a frozen config) into the
next epoch and record the result.  Each runtime only decides whether
an epoch re-plans (and, for faults, which timeline the epoch sees).
The multi-tenant scheduler never re-plans and keeps its own loop over
tenants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, List, Optional, Protocol, Tuple,
                    runtime_checkable)

from repro.core.compass import CompassPlan, NFCompass, ProfileConfig
from repro.nf.base import ServiceFunctionChain
from repro.obs import resolve_trace
from repro.sim.kernel import SimulationSession
from repro.sim.metrics import ThroughputLatencyReport
from repro.traffic.arrivals import ArrivalProcess, attach_arrivals
from repro.traffic.generator import TrafficSpec

if TYPE_CHECKING:
    from repro.faults.spec import FaultTimeline


@dataclass
class EpochResult:
    """Outcome of one runtime epoch.

    ``drift`` carries the runtime's replan trigger score: traffic
    drift for the adaptive runtime, 0.0 where the trigger is not
    drift-based (fault-driven replans).
    """

    epoch: int
    report: ThroughputLatencyReport
    drift: float
    replanned: bool


@runtime_checkable
class Runtime(Protocol):
    """What every epoch-driven runtime exposes.

    ``runtime_checkable``: ``isinstance(obj, Runtime)`` verifies the
    members exist (not their signatures), which is what the API
    surface tests assert for the three implementations.
    """

    #: The currently deployed plan (or, for multi-tenant runtimes, the
    #: primary tenant's plan).
    plan: object
    #: The simulation session evaluating the current plan.
    session: object

    def step(self, spec: TrafficSpec,
             batch_count: int = 80) -> EpochResult:
        """Process one traffic epoch, re-planning first if needed."""
        ...


class EpochLoop:
    """The epoch loop of the re-planning runtimes.

    Subclasses implement :meth:`_begin_epoch`, the replan trigger; a
    trigger that fires re-deploys through :meth:`_deploy`.
    """

    def __init__(self, compass: NFCompass, sfc: ServiceFunctionChain,
                 initial_spec: TrafficSpec, batch_size: int,
                 arrivals: Optional[ArrivalProcess], overload, trace):
        self.compass = compass
        self.sfc = sfc
        self.batch_size = batch_size
        #: Runtime-level arrival process: applied (decorrelated per
        #: epoch) to every epoch spec that has no process of its own.
        self.arrivals = arrivals
        #: Optional :class:`~repro.overload.OverloadConfig` of the next
        #: epoch, carrying the controller state the last epoch left
        #: after admission feedback: a device its circuit breaker
        #: tripped stays fenced until the cooldown elapses, and SLO
        #: feedback closes the loop.
        self.overload = overload
        self.trace = resolve_trace(trace)
        self._epoch = 0
        self.history: List[EpochResult] = []
        self.replans = 0
        self._deploy(initial_spec)

    def _deploy(self, spec: TrafficSpec) -> None:
        """Deploy for ``spec``, reusing the capacity race's session
        when it built one, and measure the deploy-time profile."""
        self.plan: CompassPlan = self.compass.deploy(
            self.sfc, spec, batch_size=self.batch_size, trace=self.trace
        )
        if self.plan.session is None:
            self.plan.session = self.compass.engine.session(
                self.plan.deployment
            )
        self.session: SimulationSession = self.plan.session
        self._profile = self.plan.profile(
            spec, ProfileConfig.deploy_time(self.batch_size),
            trace=self.trace,
        )

    def _begin_epoch(self, spec: TrafficSpec, batch_count: int
                     ) -> Tuple[float, bool, Optional["FaultTimeline"]]:
        """Re-plan first if the runtime's trigger fires.

        Returns the trigger score, whether the epoch re-planned, and
        the fault timeline (or ``None``) the epoch's simulation sees.
        """
        raise NotImplementedError

    def step(self, spec: TrafficSpec,
             batch_count: int = 80) -> EpochResult:
        """Process one traffic epoch, re-planning first if needed.

        When the runtime was built with an ``arrivals`` process and
        the epoch's spec carries none, the epoch runs under that
        process decorrelated for this epoch — bursty offered load
        varies from epoch to epoch while the mean rate stays put.
        """
        self._epoch += 1
        spec = attach_arrivals(spec, self.arrivals, self._epoch)
        drift, replanned, faults = self._begin_epoch(spec, batch_count)
        if replanned:
            self.replans += 1
        report = self.session.run(
            spec,
            batch_size=self.batch_size, batch_count=batch_count,
            branch_profile=self._profile,
            trace=self.trace,
            faults=faults,
            overload=self.overload,
        )
        if self.overload is not None:
            self.overload = self.overload.carry(report).observe(report)
        result = EpochResult(epoch=self._epoch, report=report,
                             drift=drift, replanned=replanned)
        self.history.append(result)
        return result

    def run(self, epochs: List[TrafficSpec],
            batch_count: int = 80) -> List[EpochResult]:
        """Run a sequence of traffic epochs."""
        return [self.step(spec, batch_count=batch_count)
                for spec in epochs]


__all__ = ["EpochLoop", "EpochResult", "Runtime"]
