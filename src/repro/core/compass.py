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
from typing import List, Optional, Tuple

from repro.core.allocator import AllocationReport, GraphTaskAllocator
from repro.core.orchestrator import ParallelPlan, SFCOrchestrator
from repro.core.synthesizer import NFSynthesizer, SynthesisReport
from repro.elements.graph import ElementGraph
from repro.hw.costs import CostModel
from repro.hw.platform import PlatformSpec
from repro.net.batch import PacketBatch
from repro.nf.base import ServiceFunctionChain
from repro.obs import NULL_TRACE, Trace, resolve_trace
from repro.sim.engine import BranchProfile, SimulationEngine
from repro.sim.kernel import SimulationSession, check_batches
from repro.sim.mapping import Deployment, Mapping
from repro.sim.metrics import ThroughputLatencyReport
from repro.traffic.generator import TrafficSpec


def _sample_sizes(batch_size: int) -> Tuple[int, int]:
    """A deploy's (race, run) profile sizes in packets at
    ``batch_size``: the capacity race's, and the allocator's and the
    final simulation's."""
    return max(128, 2 * batch_size), max(256, 4 * batch_size)


@dataclass
class CompassPlan:
    """Everything NFCompass decided for one SFC deployment, and what
    its deploy measured to decide it."""

    sfc: ServiceFunctionChain
    parallel_plan: Optional[ParallelPlan]
    synthesis_report: Optional[SynthesisReport]
    allocation_report: AllocationReport
    deployment: Deployment
    #: The session simulating ``deployment``: the capacity race, when
    #: the deploy raced, and every later run of the plan run on it.
    session: SimulationSession = field(repr=False, compare=False)
    #: The deploy's profile of the plan at the race size: the capacity
    #: race's, and the epoch runtimes' and tenants'.
    race_profile: BranchProfile = field(repr=False, compare=False)
    #: The deploy's profile of the plan at the run size: the
    #: allocator's and the final simulation's.
    run_profile: BranchProfile = field(repr=False, compare=False)

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
    ``trace`` is the :class:`~repro.obs.Trace` that observed the
    pipeline (the shared null trace when tracing was off).
    """

    plan: CompassPlan
    report: ThroughputLatencyReport
    trace: Trace = NULL_TRACE

    @property
    def deployment(self) -> Deployment:
        return self.plan.deployment

    @property
    def session(self) -> SimulationSession:
        """The plan's reusable session, for follow-up runs."""
        return self.plan.session

    def summary(self) -> str:
        """The report's one-line summary (stable across the redesign)."""
        return self.report.summary()

    def describe(self) -> str:
        """Plan description plus the simulation summary."""
        return f"{self.plan.describe()}\n{self.report.summary()}"


class NFCompass:
    """End-to-end runtime: re-organize, synthesize, allocate, run."""

    def __init__(self, platform: Optional[PlatformSpec] = None,
                 algorithm: str = "kl",
                 enable_parallelization: bool = True,
                 enable_synthesis: bool = True,
                 cpu_cores: Optional[List[str]] = None,
                 gpus: Optional[List[str]] = None):
        self.platform = platform or PlatformSpec()
        self.cost = CostModel(self.platform)
        self.enable_parallelization = enable_parallelization
        self.enable_synthesis = enable_synthesis
        self.orchestrator = SFCOrchestrator()
        self.synthesizer = NFSynthesizer()
        self.allocator = GraphTaskAllocator(
            platform=self.platform,
            cost_model=self.cost,
            algorithm=algorithm,
            cpu_cores=cpu_cores,
            gpus=gpus,
        )
        self.engine = SimulationEngine(self.platform, self.cost)

    # ------------------------------------------------------------------
    def build_graph(self, sfc: ServiceFunctionChain, trace=None):
        """Re-organization only: (parallel plan, synthesized graph)."""
        return self._reorganize(sfc, self.enable_parallelization,
                                resolve_trace(trace))

    def _reorganize(self, sfc: ServiceFunctionChain, parallelize: bool,
                    trace):
        parallel_plan = None
        if parallelize:
            parallel_plan, graph = self.orchestrator.parallelize(
                sfc, trace=trace
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
                        spec: TrafficSpec, sample: List[PacketBatch],
                        batch_size: int, parallelize: bool,
                        trace) -> CompassPlan:
        """Build, profile and allocate one candidate structure.

        One functional pass on a clone of the candidate's graph, over
        its own copies of ``sample`` (the deploy's run-size sample),
        takes both of the plan's profiles: the race profile is the
        pass's prefix.  The allocator takes the run profile.
        """
        parallel_plan, synthesis_report, graph = self._reorganize(
            sfc, parallelize, trace
        )
        race, run = _sample_sizes(batch_size)
        with trace.span("profile", graph=graph.name,
                        sample_packets=run, batch_size=batch_size):
            # NAT and IPsec rewrite packets in place: every pass runs
            # its own copies, so every candidate sees the same traffic.
            copies = [PacketBatch([packet.clone() for packet in batch],
                                  creation_time=batch.creation_time)
                      for batch in sample]
            profiles = BranchProfile.measure_prefixes(
                graph.clone(), copies, (race, run), batch_size
            )
        mapping, allocation_report = self.allocator.allocate(
            graph, spec, batch_size=batch_size,
            branch_profile=profiles[run], trace=trace,
        )
        deployment = Deployment(
            graph=graph,
            mapping=mapping,
            persistent_kernel=True,
            name=f"nfcompass:{sfc.name}",
        )
        return CompassPlan(
            sfc=sfc,
            parallel_plan=parallel_plan,
            synthesis_report=synthesis_report,
            allocation_report=allocation_report,
            deployment=deployment,
            # Building the session validates the deployment.
            session=self.engine.session(deployment),
            race_profile=profiles[race],
            run_profile=profiles[run],
        )

    def deploy(self, sfc: ServiceFunctionChain, spec: TrafficSpec,
               batch_size: int = 64, trace=None) -> CompassPlan:
        """Run the full Fig. 9 pipeline for one SFC.

        Re-organization is *profile-guided*: parallelization pays a
        duplication + XOR-merge cost per packet byte, which can exceed
        its pipeline-shortening benefit (large packets, cheap NFs —
        the paper itself notes the branching overhead offsets part of
        the gain).  The runtime therefore evaluates both the
        parallelized and the sequential deployment against the traffic
        profile and keeps the one with the higher simulated capacity.

        Each candidate is profiled by one functional pass on a clone,
        over its own copy of the deploy's one drawn sample; the
        returned plan's graph has never been run.  The plan keeps what
        its deploy measured: its session and its race and run
        profiles.
        """
        check_batches(batch_size=batch_size)
        trace = resolve_trace(trace)
        with trace.span("deploy", sfc=sfc.name,
                        batch_size=batch_size) as span:
            plan = self._choose_candidate(sfc, spec, batch_size, trace)
            span.set(parallelized=plan.parallel_plan is not None,
                     effective_length=plan.effective_length)
        return plan

    def _choose_candidate(self, sfc: ServiceFunctionChain,
                          spec: TrafficSpec, batch_size: int,
                          trace) -> CompassPlan:
        # One sample per deploy: every profile a deploy takes is a
        # prefix of the run-size one.
        sample = BranchProfile.draw_sample(
            spec, _sample_sizes(batch_size)[1], batch_size)
        if not (self.enable_parallelization and sfc.length > 1):
            trace.count("compass.candidates_evaluated", 1)
            return self._plan_candidate(sfc, spec, sample, batch_size,
                                        parallelize=False, trace=trace)
        candidates = [
            self._plan_candidate(sfc, spec, sample, batch_size,
                                 parallelize=parallelize, trace=trace)
            for parallelize in (False, True)
        ]
        trace.count("compass.candidates_evaluated", len(candidates))
        capacities = []
        for plan in candidates:
            capacity = plan.session.measure_capacity(
                spec, batch_size=batch_size,
                batch_count=40, branch_profile=plan.race_profile,
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
            trace=None, overload=None) -> DeploymentResult:
        """Deploy and simulate in one call.

        Returns a :class:`DeploymentResult`; the
        :class:`ThroughputLatencyReport` is its ``report`` field, and
        report attributes are read there, not on the result itself.
        The simulation runs on the plan's session with its run
        profile.  ``overload`` is an optional
        :class:`~repro.overload.OverloadConfig` applied to the
        simulation run.
        """
        trace = resolve_trace(trace)
        with trace.span("run", sfc=sfc.name, batch_size=batch_size,
                        batch_count=batch_count):
            plan = self.deploy(sfc, spec, batch_size, trace)
            report = plan.session.run(
                spec,
                batch_size=batch_size,
                batch_count=batch_count,
                branch_profile=plan.run_profile,
                trace=trace,
                overload=overload,
            )
        return DeploymentResult(plan=plan, report=report, trace=trace)
