"""The NFCompass runtime facade (Fig. 9).

``NFCompass.deploy`` runs the full pipeline on a service function
chain: SFC orchestrator (parallelization) -> NF synthesizer
(element-level redundancy elimination) -> graph-partition task
allocator -> a runnable :class:`~repro.sim.mapping.Deployment` with
the persistent-kernel GPU design enabled.  ``NFCompass.run`` deploys
and simulates in one call, returning a :class:`DeploymentResult` that
bundles the chosen plan, the simulation report, the reusable
simulation session, and the observability trace.

Each stage can be disabled for ablation (the Section V methodology
evaluates the re-organization and the allocation separately), and
every stage records spans/metrics on the ambient or explicitly passed
:class:`~repro.obs.Trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro._compat import legacy_api_enabled, legacy_shim
from repro.core.allocator import AllocationReport, GraphTaskAllocator
from repro.core.orchestrator import ParallelPlan, SFCOrchestrator
from repro.core.synthesizer import NFSynthesizer, SynthesisReport
from repro.elements.graph import ElementGraph
from repro.hw.costs import CostModel
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.obs import NULL_TRACE, Trace, resolve_trace
from repro.sim.engine import BranchProfile, SimulationEngine
from repro.sim.kernel import SimulationSession
from repro.sim.mapping import Deployment, Mapping
from repro.sim.metrics import ThroughputLatencyReport
from repro.traffic.generator import TrafficSpec


@dataclass(frozen=True)
class ProfileConfig:
    """How to measure a :class:`~repro.sim.engine.BranchProfile`.

    The single source of truth for the two sample sizes a deploy
    uses.  :meth:`deploy_time` is the capacity race's sample;
    :meth:`run_time` is the allocator's and the final simulation's.
    A deploy takes both from one functional pass per candidate: the
    race profile is the pass's prefix (see
    :meth:`NFCompass._plan_candidate`).  ``sample_packets`` wins when
    set; otherwise the sample size is
    ``max(min_sample_packets, batch_size * sample_batches)``.
    """

    batch_size: int = 64
    sample_packets: Optional[int] = None
    min_sample_packets: int = 128
    sample_batches: int = 2

    @classmethod
    def deploy_time(cls, batch_size: int) -> "ProfileConfig":
        """The quick profile used by the deploy-time capacity race."""
        return cls(batch_size=batch_size)

    @classmethod
    def run_time(cls, batch_size: int) -> "ProfileConfig":
        """The larger sample used before a full simulation run."""
        return cls(batch_size=batch_size, min_sample_packets=256,
                   sample_batches=4)

    @property
    def resolved_sample_packets(self) -> int:
        if self.sample_packets is not None:
            return self.sample_packets
        return max(self.min_sample_packets,
                   self.batch_size * self.sample_batches)


@dataclass
class CompassPlan:
    """Everything NFCompass decided for one SFC deployment."""

    sfc: ServiceFunctionChain
    parallel_plan: Optional[ParallelPlan]
    synthesis_report: Optional[SynthesisReport]
    allocation_report: AllocationReport
    deployment: Deployment
    #: The simulation session built during the deploy-time capacity
    #: race, reusable by callers that simulate the chosen plan.
    session: Optional[SimulationSession] = field(
        default=None, repr=False, compare=False
    )
    #: Snapshots of the candidate's one profiling pass, keyed by sample
    #: size.  Only a running :meth:`NFCompass.deploy` or
    #: :meth:`NFCompass.run` reads them, and both empty the dict before
    #: they return.
    _profiles: Dict[int, BranchProfile] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def effective_length(self) -> int:
        if self.parallel_plan is not None:
            return self.parallel_plan.effective_length
        return self.sfc.length

    # -- result-style accessors ----------------------------------------
    @property
    def graph(self) -> ElementGraph:
        """The deployed element graph."""
        return self.deployment.graph

    @property
    def mapping(self) -> Mapping:
        """The element-to-processor mapping GTA chose."""
        return self.deployment.mapping

    @property
    def partition(self):
        """The :class:`~repro.core.partition.PartitionResult`."""
        return self.allocation_report.partition

    @property
    def offload_ratios(self):
        """Per-element offload ratios (node id -> fraction on GPU)."""
        return self.allocation_report.offload_ratios

    def profile(self, spec: TrafficSpec,
                config: Optional[ProfileConfig] = None,
                trace=None) -> BranchProfile:
        """Measure a branch profile for this plan's deployment.

        Every call measures afresh.  Profiling runs on a clone so the
        deployed graph's element state never carries warmed-up
        profiling traffic into a simulated run or a golden-model
        comparison.
        """
        config = config or ProfileConfig()
        trace = resolve_trace(trace)
        with trace.span("profile", graph=self.deployment.graph.name,
                        sample_packets=config.resolved_sample_packets,
                        batch_size=config.batch_size):
            return BranchProfile.measure(
                self.deployment.graph.clone(), spec,
                sample_packets=config.resolved_sample_packets,
                batch_size=config.batch_size,
            )

    def describe(self) -> str:
        lines = [f"NFCompass plan for {self.sfc.name}:"]
        if self.parallel_plan is not None:
            lines.append(
                f"  stages ({self.parallel_plan.effective_length}): "
                f"{self.parallel_plan.describe()}"
            )
        if self.synthesis_report is not None:
            lines.append("  " + self.synthesis_report.summary())
        lines.append("  " + self.allocation_report.summary())
        return "\n".join(lines)


@dataclass
class DeploymentResult:
    """What :meth:`NFCompass.run` returns: plan, report, session, trace.

    ``report`` is the :class:`ThroughputLatencyReport` the old API
    returned bare; ``plan`` is the chosen :class:`CompassPlan`;
    ``session`` is the reusable
    :class:`~repro.sim.kernel.SimulationSession` for follow-up runs;
    ``trace`` is the :class:`~repro.obs.Trace` that observed the
    pipeline (the shared null trace when tracing was off).

    The transition shim that forwarded report attributes directly on
    the result (``result.throughput_gbps`` ...) is retired: such
    access now raises :class:`AttributeError` naming the replacement
    (``result.report.throughput_gbps``) unless the
    ``REPRO_LEGACY_API=1`` escape hatch is set, in which case it
    forwards under a one-shot :class:`DeprecationWarning`.
    """

    plan: CompassPlan
    report: ThroughputLatencyReport
    session: SimulationSession
    trace: Trace = NULL_TRACE

    @property
    def deployment(self) -> Deployment:
        return self.plan.deployment

    def summary(self) -> str:
        """The report's one-line summary (stable across the redesign)."""
        return self.report.summary()

    def describe(self) -> str:
        """Plan description plus the simulation summary."""
        return f"{self.plan.describe()}\n{self.report.summary()}"

    def __getattr__(self, name: str):
        # NFCompass.run used to return the bare ThroughputLatencyReport;
        # the forwarding shim is retired but reachable via the
        # REPRO_LEGACY_API=1 escape hatch.  Raises AttributeError (not
        # LegacyAPIError) when disabled so getattr()/hasattr() keep
        # their contract.
        if name.startswith("_"):
            raise AttributeError(name)
        report = self.__dict__.get("report")
        if report is not None and hasattr(report, name):
            if not legacy_api_enabled():
                raise AttributeError(
                    f"DeploymentResult.{name} was retired; read "
                    f"DeploymentResult.report.{name}. Set "
                    f"REPRO_LEGACY_API=1 to re-enable the legacy "
                    f"forwarding shim for one release."
                )
            legacy_shim(f"DeploymentResult.{name}",
                        f"DeploymentResult.report.{name}", stacklevel=2)
            return getattr(report, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )


class NFCompass:
    """End-to-end runtime: re-organize, synthesize, allocate, run."""

    def __init__(self, platform: Optional[PlatformSpec] = None,
                 algorithm: str = "kl",
                 delta: float = 0.1,
                 persistent_kernel: bool = True,
                 enable_parallelization: bool = True,
                 enable_synthesis: bool = True,
                 independence_override: Optional[Callable] = None,
                 cpu_cores: Optional[List[str]] = None,
                 gpus: Optional[List[str]] = None,
                 cost_model: Optional[CostModel] = None):
        self.platform = platform or PlatformSpec()
        self.cost = cost_model or CostModel(self.platform)
        self.persistent_kernel = persistent_kernel
        self.enable_parallelization = enable_parallelization
        self.enable_synthesis = enable_synthesis
        self.orchestrator = SFCOrchestrator(
            independence_override=independence_override
        )
        self.synthesizer = NFSynthesizer()
        self.allocator = GraphTaskAllocator(
            platform=self.platform,
            cost_model=self.cost,
            algorithm=algorithm,
            delta=delta,
            cpu_cores=cpu_cores,
            gpus=gpus,
            persistent_kernel=persistent_kernel,
        )
        self.engine = SimulationEngine(self.platform, self.cost)

    # ------------------------------------------------------------------
    def build_graph(self, sfc: ServiceFunctionChain,
                    max_width: Optional[int] = None,
                    trace=None):
        """Re-organization only: (parallel plan, synthesized graph)."""
        return self._reorganize(sfc, self.enable_parallelization,
                                max_width, resolve_trace(trace))

    def _reorganize(self, sfc: ServiceFunctionChain, parallelize: bool,
                    max_width: Optional[int], trace):
        parallel_plan = None
        if parallelize:
            parallel_plan, graph = self.orchestrator.parallelize(
                sfc, max_width=max_width, trace=trace
            )
        else:
            graph = sfc.concatenated_graph()
        synthesis_report = None
        if self.enable_synthesis:
            graph, synthesis_report = self.synthesizer.synthesize(
                graph, trace=trace
            )
        return parallel_plan, synthesis_report, graph

    def _plan_candidate(self, sfc: ServiceFunctionChain,
                        spec: TrafficSpec, batch_size: int,
                        parallelize: bool,
                        max_width: Optional[int],
                        trace=None,
                        sample_sizes: Sequence[int] = ()) -> CompassPlan:
        """Build, profile and allocate one candidate structure.

        One functional pass on a clone of the candidate's graph serves
        every profile the deploy needs.  It runs long enough for the
        ``run_time`` sample, which the allocator takes, and snapshots
        the counters at each size in ``sample_sizes`` on the way.  The
        snapshots land in the plan's ``_profiles``.
        """
        trace = resolve_trace(trace)
        parallel_plan, synthesis_report, graph = self._reorganize(
            sfc, parallelize, max_width, trace
        )
        full = ProfileConfig.run_time(batch_size).resolved_sample_packets
        sizes = sorted({full, *sample_sizes})
        with trace.span("profile", graph=graph.name,
                        sample_packets=sizes[-1], batch_size=batch_size):
            profiles = BranchProfile.measure_prefixes(
                graph.clone(), spec, sizes, batch_size
            )
        mapping, allocation_report = self.allocator.allocate(
            graph, spec, batch_size=batch_size,
            branch_profile=profiles[full], trace=trace,
        )
        deployment = Deployment(
            graph=graph,
            mapping=mapping,
            persistent_kernel=self.persistent_kernel,
            name=f"nfcompass:{sfc.name}",
        )
        deployment.validate()
        plan = CompassPlan(
            sfc=sfc,
            parallel_plan=parallel_plan,
            synthesis_report=synthesis_report,
            allocation_report=allocation_report,
            deployment=deployment,
        )
        plan._profiles = profiles
        return plan

    def deploy(self, sfc: ServiceFunctionChain, spec: TrafficSpec,
               batch_size: int = 64,
               max_width: Optional[int] = None,
               trace=None) -> CompassPlan:
        """Run the full Fig. 9 pipeline for one SFC.

        Re-organization is *profile-guided*: parallelization pays a
        duplication + XOR-merge cost per packet byte, which can exceed
        its pipeline-shortening benefit (large packets, cheap NFs —
        the paper itself notes the branching overhead offsets part of
        the gain).  The runtime therefore evaluates both the
        parallelized and the sequential deployment against the traffic
        profile and keeps the one with the higher simulated capacity.

        Each candidate is profiled by one functional pass on a clone;
        the returned plan's graph has never been run.
        """
        plan = self._deploy(sfc, spec, batch_size, max_width,
                            resolve_trace(trace))
        plan._profiles.clear()
        return plan

    def _deploy(self, sfc: ServiceFunctionChain, spec: TrafficSpec,
                batch_size: int, max_width: Optional[int],
                trace) -> CompassPlan:
        with trace.span("deploy", sfc=sfc.name,
                        batch_size=batch_size) as span:
            plan = self._choose_candidate(sfc, spec, batch_size,
                                          max_width, trace)
            span.set(parallelized=plan.parallel_plan is not None,
                     effective_length=plan.effective_length)
        return plan

    def _choose_candidate(self, sfc: ServiceFunctionChain,
                          spec: TrafficSpec, batch_size: int,
                          max_width: Optional[int],
                          trace) -> CompassPlan:
        if not (self.enable_parallelization and sfc.length > 1):
            trace.count("compass.candidates_evaluated", 1)
            return self._plan_candidate(sfc, spec, batch_size,
                                        parallelize=False,
                                        max_width=max_width, trace=trace)
        race = ProfileConfig.deploy_time(batch_size).resolved_sample_packets
        candidates = [
            self._plan_candidate(sfc, spec, batch_size,
                                 parallelize=parallelize,
                                 max_width=max_width, trace=trace,
                                 sample_sizes=(race,))
            for parallelize in (False, True)
        ]
        trace.count("compass.candidates_evaluated", len(candidates))
        capacities = []
        for plan in candidates:
            plan.session = self.engine.session(plan.deployment)
            capacity = plan.session.measure_capacity(
                spec, batch_size=batch_size,
                batch_count=40, branch_profile=plan._profiles[race],
                trace=trace,
            )
            capacities.append(capacity)
            trace.observe("compass.candidate_capacity_gbps", capacity)
        sequential_plan, parallel_plan_candidate = candidates
        sequential_capacity, parallel_capacity = capacities
        # The paper's acceptance criterion: take the latency-reducing
        # parallel structure when it keeps throughput within ~10 % of
        # the sequential deployment.
        if parallel_capacity >= 0.9 * sequential_capacity:
            return parallel_plan_candidate
        return sequential_plan

    def run(self, sfc: ServiceFunctionChain, spec: TrafficSpec,
            batch_size: int = 64,
            batch_count: int = 200,
            max_width: Optional[int] = None,
            trace=None, overload=None) -> DeploymentResult:
        """Deploy and simulate in one call.

        Returns a :class:`DeploymentResult`; the previous bare
        :class:`ThroughputLatencyReport` is its ``report`` field (and
        report attributes remain reachable on the result itself under
        a :class:`DeprecationWarning`).  The simulation reuses the
        ``run_time`` profile the deploy already took of the chosen
        candidate.  ``overload`` is an optional
        :class:`~repro.overload.OverloadConfig` applied to the
        simulation run.
        """
        trace = resolve_trace(trace)
        with trace.span("run", sfc=sfc.name, batch_size=batch_size,
                        batch_count=batch_count):
            plan = self._deploy(sfc, spec, batch_size, max_width, trace)
            full = ProfileConfig.run_time(batch_size).resolved_sample_packets
            profile = plan._profiles[full]
            plan._profiles.clear()
            session = plan.session or self.engine.session(plan.deployment)
            plan.session = session
            report = session.run(
                spec,
                batch_size=batch_size,
                batch_count=batch_count,
                branch_profile=profile,
                trace=trace,
                overload=overload,
            )
        return DeploymentResult(plan=plan, report=report,
                                session=session, trace=trace)
