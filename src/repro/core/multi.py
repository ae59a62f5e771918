"""Multi-tenant co-scheduling.

The paper's characterization (Section III.C) shows co-running NFs
interfere — through the shared last-level cache on the CPU and through
kernel launch/context-switch churn on the GPU — and its runtime is
explicitly multi-tenant ("with n SFCs we have 2n initial graphs").

:class:`MultiTenantScheduler` deploys several SFCs side by side:

- the CPU core pool is partitioned among tenants (cores are dedicated,
  as in the paper's container-per-NF setup), GPUs are shared;
- each tenant's chain goes through the full NFCompass pipeline with
  its core slice;
- at simulation time every tenant's service times are inflated by the
  co-existence interference model, driven by the *other* tenants' NF
  types: CPU time by the cache pressure/sensitivity product, GPU
  launches by the number of co-resident offloaded tenants, and the
  cache model's effective-LLC shrink by the aggressors' footprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compass import CompassPlan, NFCompass
from repro.core.runtime import EpochResult
from repro.hw.interference import InterferenceModel
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.sim.kernel import SimulationSession, check_batches
from repro.sim.metrics import ThroughputLatencyReport
from repro.traffic.arrivals import ArrivalProcess, attach_arrivals
from repro.traffic.generator import TrafficSpec


@dataclass
class Tenant:
    """One tenant: a chain, its traffic, and its deployment plan."""

    name: str
    sfc: ServiceFunctionChain
    spec: TrafficSpec
    plan: Optional[CompassPlan] = None
    cores: List[str] = field(default_factory=list)

    @property
    def nf_types(self) -> List[str]:
        return [nf.nf_type for nf in self.sfc.nfs]


class MultiTenantScheduler:
    """Deploys and simulates several SFCs on one platform."""

    def __init__(self, platform: Optional[PlatformSpec] = None,
                 interference: Optional[InterferenceModel] = None,
                 cores_per_tenant: Optional[int] = None,
                 arrivals: Optional[ArrivalProcess] = None,
                 overload=None,
                 **compass_kwargs):
        self.platform = platform or PlatformSpec()
        self.interference = interference or InterferenceModel()
        self.cores_per_tenant = cores_per_tenant
        #: Runtime-level arrival process: every co-run round applies it
        #: (decorrelated per epoch) to tenants whose spec has none.
        self.arrivals = arrivals
        #: Optional :class:`~repro.overload.OverloadConfig` of every
        #: tenant's run, carrying the state the last run left (tenants
        #: run in deploy order); its admission controller observes the
        #: *bottleneck* tenant's report each :meth:`step` — the tenant
        #: whose SLO a consolidation decision would break first.
        self.overload = overload
        self.compass_kwargs = compass_kwargs
        self.tenants: List[Tenant] = []
        #: The batch size of the last :meth:`deploy`; runs default to
        #: it.
        self.batch_size: Optional[int] = None
        self._epochs = 0

    # ------------------------------------------------------------------
    def deploy(self, workloads: Sequence[Tuple[str, ServiceFunctionChain,
                                               TrafficSpec]],
               batch_size: int = 64) -> List[Tenant]:
        """Partition cores and deploy each tenant's chain."""
        if not workloads:
            raise ValueError("need at least one tenant")
        total_cores = self.platform.total_cores
        per_tenant = self.cores_per_tenant or max(
            1, total_cores // len(workloads)
        )
        if per_tenant * len(workloads) > total_cores:
            raise ValueError(
                f"{len(workloads)} tenants x {per_tenant} cores exceed "
                f"the platform's {total_cores} cores"
            )
        gpus = self.platform.gpu_processor_ids()
        self.batch_size = batch_size
        self.tenants = []
        for index, (name, sfc, spec) in enumerate(workloads):
            cores = [f"cpu{index * per_tenant + i}"
                     for i in range(per_tenant)]
            compass = NFCompass(
                platform=self.platform,
                cpu_cores=cores,
                gpus=[gpus[index % len(gpus)]] if gpus else None,
                **self.compass_kwargs,
            )
            self.tenants.append(Tenant(
                name=name, sfc=sfc, spec=spec, cores=cores,
                plan=compass.deploy(sfc, spec, batch_size=batch_size),
            ))
        return self.tenants

    # ------------------------------------------------------------------
    def _interference_inputs(self, victim: Tenant) -> Dict[str, float]:
        aggressor_types: List[str] = []
        offloaded_tenants = 0
        for tenant in self.tenants:
            if tenant is victim:
                continue
            aggressor_types.extend(tenant.nf_types)
            ratios = tenant.plan.allocation_report.offload_ratios
            if any(r > 0 for r in ratios.values()):
                offloaded_tenants += 1
        if not aggressor_types:
            return {"cpu_time_inflation": 1.0,
                    "co_run_pressure_bytes": 0.0,
                    "gpu_corun_kernels": 0}
        # The victim suffers as its most sensitive NF does.
        drop = max(
            self.interference.corun_drop(nf_type, aggressor_types, "cpu")
            for nf_type in victim.nf_types
        )
        return {
            "cpu_time_inflation": 1.0 / max(1e-6, 1.0 - drop),
            "co_run_pressure_bytes": self.interference.co_run_pressure_bytes(
                aggressor_types
            ),
            "gpu_corun_kernels": offloaded_tenants,
        }

    def run(self, batch_size: Optional[int] = None,
            batch_count: int = 100,
            isolated: bool = False) -> Dict[str, ThroughputLatencyReport]:
        """Simulate every tenant; ``isolated=True`` disables the
        cross-tenant interference (the solo-run reference).

        ``batch_size`` defaults to the one the tenants were deployed
        and profiled with.
        """
        if not self.tenants:
            raise RuntimeError("deploy() must run first")
        if batch_size is None:
            batch_size = self.batch_size
        reports: Dict[str, ThroughputLatencyReport] = {}
        for tenant in self.tenants:
            inputs = ({"cpu_time_inflation": 1.0,
                       "co_run_pressure_bytes": 0.0,
                       "gpu_corun_kernels": 0}
                      if isolated else self._interference_inputs(tenant))
            spec = attach_arrivals(tenant.spec, self.arrivals,
                                   self._epochs)
            reports[tenant.name] = report = tenant.plan.session.run(
                spec,
                batch_size=batch_size, batch_count=batch_count,
                branch_profile=tenant.plan.race_profile,
                overload=self.overload,
                **inputs,
            )
            if self.overload is not None:
                self.overload = self.overload.carry(report)
        return reports

    # ------------------------------------------------------------------
    # Runtime protocol
    # ------------------------------------------------------------------
    @property
    def plan(self) -> Optional[CompassPlan]:
        """The primary (first-deployed) tenant's plan, for the
        :class:`~repro.core.runtime.Runtime` protocol."""
        return self.tenants[0].plan if self.tenants else None

    @property
    def session(self) -> Optional[SimulationSession]:
        """The primary tenant's simulation session."""
        return self.tenants[0].plan.session if self.tenants else None

    def step(self, spec: Optional[TrafficSpec] = None,
             batch_count: int = 80) -> EpochResult:
        """One co-run round over every tenant, as a Runtime epoch.

        ``spec`` is accepted for protocol compatibility but ignored —
        each tenant runs its own admitted traffic.  The returned
        report is the *bottleneck* tenant's (lowest throughput under
        interference), the number multi-tenant consolidation decisions
        hinge on.  A ``batch_count`` below 1, or a step before
        :meth:`deploy`, raises before the epoch counter moves.
        """
        check_batches(batch_count=batch_count)
        if not self.tenants:
            raise RuntimeError("deploy() must run first")
        self._epochs += 1
        reports = self.run(batch_count=batch_count)
        bottleneck = min(reports.values(),
                         key=lambda r: r.throughput_gbps)
        if self.overload is not None:
            self.overload = self.overload.observe(bottleneck)
        return EpochResult(epoch=self._epochs, report=bottleneck,
                           drift=0.0, replanned=False)

    def consolidation_report(self, batch_size: Optional[int] = None,
                             batch_count: int = 100
                             ) -> Dict[str, Dict[str, float]]:
        """Solo vs co-run throughput per tenant (the Fig. 8e story at
        system level)."""
        solo = self.run(batch_size=batch_size, batch_count=batch_count,
                        isolated=True)
        corun = self.run(batch_size=batch_size, batch_count=batch_count,
                         isolated=False)
        summary: Dict[str, Dict[str, float]] = {}
        for tenant in self.tenants:
            solo_gbps = solo[tenant.name].throughput_gbps
            corun_gbps = corun[tenant.name].throughput_gbps
            summary[tenant.name] = {
                "solo_gbps": solo_gbps,
                "corun_gbps": corun_gbps,
                "drop_fraction": (0.0 if solo_gbps <= 0 else
                                  1.0 - corun_gbps / solo_gbps),
            }
        return summary
