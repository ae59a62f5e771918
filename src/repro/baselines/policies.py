"""Mapping-policy baselines (CPU-only, GPU-only, fixed ratio, optimal)."""

from __future__ import annotations

from typing import List, Optional

from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement
from repro.hw.costs import CostModel
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.sim.engine import BranchProfile, SimulationEngine
from repro.sim.mapping import Deployment, Mapping
from repro.traffic.generator import TrafficSpec


class BaselineSystem:
    """Common scaffolding: concatenate the SFC, then map it."""

    name = "baseline"
    persistent_kernel = False

    def __init__(self, platform: Optional[PlatformSpec] = None,
                 cpu_cores: Optional[List[str]] = None,
                 gpus: Optional[List[str]] = None,
                 cost_model: Optional[CostModel] = None,
                 persistent_kernel: Optional[bool] = None):
        self.platform = platform or PlatformSpec()
        self.cost = cost_model or CostModel(self.platform)
        self.cpu_cores = cpu_cores or self.platform.cpu_processor_ids(
            min(6, self.platform.total_cores)
        )
        self.gpus = gpus or self.platform.gpu_processor_ids()
        if persistent_kernel is not None:
            self.persistent_kernel = persistent_kernel

    def build_graph(self, sfc: ServiceFunctionChain) -> ElementGraph:
        """Baselines run the naive concatenated processing tree."""
        return sfc.concatenated_graph()

    def make_mapping(self, graph: ElementGraph, spec: TrafficSpec,
                     batch_size: int) -> Mapping:
        raise NotImplementedError

    def deploy(self, sfc: ServiceFunctionChain, spec: TrafficSpec,
               batch_size: int = 64) -> Deployment:
        graph = self.build_graph(sfc)
        mapping = self.make_mapping(graph, spec, batch_size)
        deployment = Deployment(
            graph=graph,
            mapping=mapping,
            persistent_kernel=self.persistent_kernel,
            name=f"{self.name}:{sfc.name}",
        )
        deployment.validate()
        return deployment


class CPUOnlyBaseline(BaselineSystem):
    """Everything on CPU cores, round-robin."""

    name = "cpu-only"

    def make_mapping(self, graph: ElementGraph, spec: TrafficSpec,
                     batch_size: int) -> Mapping:
        return Mapping.all_cpu(graph, cores=self.cpu_cores)


class FixedRatioBaseline(BaselineSystem):
    """One global offload ratio for all offloadable elements.

    The "one-size-fits-all offload ratio" the paper's characterization
    warns about (Fig. 7's 70 % line).
    """

    def __init__(self, ratio: float, **kwargs):
        super().__init__(**kwargs)
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("ratio must be in [0, 1]")
        self.ratio = ratio
        self.name = f"fixed-{int(round(ratio * 100))}%"

    def make_mapping(self, graph: ElementGraph, spec: TrafficSpec,
                     batch_size: int) -> Mapping:
        return Mapping.fixed_ratio(graph, self.ratio,
                                   cores=self.cpu_cores, gpus=self.gpus)


class GPUOnlyBaseline(FixedRatioBaseline):
    """Offload every offloadable element fully; per-batch launches."""

    def __init__(self, **kwargs):
        super().__init__(ratio=1.0, **kwargs)
        self.name = "gpu-only"


class ExhaustiveOptimalBaseline(BaselineSystem):
    """The paper's manually-searched optimal offloading fractions.

    Phase 1 sweeps a single global ratio over a grid; phase 2 refines
    each offloadable element's ratio by coordinate descent, using the
    simulated throughput as the oracle (this is exactly "manual
    exhaustive search" against the testbed, with the simulator as the
    testbed).
    """

    name = "optimal"

    def __init__(self, grid_step: float = 0.1,
                 refine_passes: int = 1,
                 batch_count: int = 60, **kwargs):
        super().__init__(**kwargs)
        self.grid_step = grid_step
        self.refine_passes = refine_passes
        self.batch_count = batch_count
        self.engine = SimulationEngine(self.platform, self.cost)
        self.best_ratios: dict = {}

    def _grid(self) -> List[float]:
        steps = int(round(1.0 / self.grid_step))
        return [i * self.grid_step for i in range(steps + 1)]

    def _throughput_of(self, graph: ElementGraph, ratios: dict,
                       spec: TrafficSpec, batch_size: int,
                       profile: BranchProfile) -> float:
        mapping = Mapping.from_ratios(graph, ratios, cores=self.cpu_cores,
                                      gpus=self.gpus)
        deployment = Deployment(graph=graph, mapping=mapping,
                                persistent_kernel=self.persistent_kernel,
                                name="optimal-probe")
        session = self.engine.session(deployment)
        return session.measure_capacity(
            spec, batch_size=batch_size,
            batch_count=self.batch_count, branch_profile=profile,
        )

    def _offloadable_nodes(self, graph: ElementGraph) -> List[str]:
        return [
            node for node in graph.topological_order()
            if isinstance(graph.element(node), OffloadableElement)
            and graph.element(node).offloadable
        ]

    def make_mapping(self, graph: ElementGraph, spec: TrafficSpec,
                     batch_size: int) -> Mapping:
        profile = BranchProfile.measure(
            graph.clone(), spec, sample_packets=max(256, batch_size * 4),
            batch_size=batch_size,
        )
        offloadables = self._offloadable_nodes(graph)

        best_ratio = 0.0
        best_throughput = -1.0
        for ratio in self._grid():
            ratios = {node: ratio for node in offloadables}
            throughput = self._throughput_of(graph, ratios, spec,
                                             batch_size, profile)
            if throughput > best_throughput:
                best_throughput = throughput
                best_ratio = ratio

        ratios = {node: best_ratio for node in offloadables}
        for _pass in range(self.refine_passes):
            improved = False
            for node in offloadables:
                for candidate in self._grid():
                    if candidate == ratios[node]:
                        continue
                    trial = dict(ratios)
                    trial[node] = candidate
                    throughput = self._throughput_of(
                        graph, trial, spec, batch_size, profile
                    )
                    if throughput > best_throughput:
                        best_throughput = throughput
                        ratios = trial
                        improved = True
            if not improved:
                break
        self.best_ratios = ratios
        return Mapping.from_ratios(graph, ratios, cores=self.cpu_cores,
                                   gpus=self.gpus)
