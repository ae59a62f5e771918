"""NBA baseline model.

NBA [Kim et al., EuroSys'15] offloads packet processing to GPUs with
an *adaptive load balancer* that picks a per-element CPU/GPU split
from isolated throughput feedback.  Its documented limitations — the
ones NFCompass targets — are that the split is chosen per element
without global dataflow awareness (every offloaded element pays its
own PCIe round trip) and that kernels are launched per batch.
"""

from __future__ import annotations

from repro.baselines.policies import BaselineSystem
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement
from repro.hw.costs import BatchStats
from repro.sim.mapping import Mapping
from repro.traffic.generator import TrafficSpec


class NBABaseline(BaselineSystem):
    """Per-element adaptive offloading, queue-based scheduling."""

    name = "nba"
    persistent_kernel = False

    #: Ratio grid the adaptive balancer converges on (NBA adapts in
    #: coarse steps).
    RATIO_STEP = 0.1

    def _isolated_best_ratio(self, element, stats: BatchStats) -> float:
        """The ratio maximizing this element's *isolated* throughput.

        NBA's balancer observes per-element queue drain rates; in
        steady state that converges to the ratio equalizing CPU-side
        and GPU-side completion times for the element alone — exactly
        what this closed-form probe computes.
        """
        if not (isinstance(element, OffloadableElement)
                and element.offloadable):
            return 0.0
        best_ratio = 0.0
        best_time = None
        steps = int(round(1.0 / self.RATIO_STEP))
        for index in range(steps + 1):
            ratio = index * self.RATIO_STEP
            cpu_packets = max(0, round(stats.batch_size * (1 - ratio)))
            gpu_packets = max(0, round(stats.batch_size * ratio))
            cpu_time = 0.0
            if cpu_packets:
                cpu_time = self.cost.cpu_batch_seconds(
                    element, stats.with_batch_size(cpu_packets)
                )
            gpu_time = 0.0
            if gpu_packets:
                timing = self.cost.gpu_batch_timing(
                    element, stats.with_batch_size(gpu_packets),
                    persistent_kernel=False,
                )
                gpu_time = timing.total
            completion = max(cpu_time, gpu_time)
            if best_time is None or completion < best_time:
                best_time = completion
                best_ratio = ratio
        return best_ratio

    def make_mapping(self, graph: ElementGraph, spec: TrafficSpec,
                     batch_size: int) -> Mapping:
        stats = BatchStats(
            batch_size=batch_size,
            mean_packet_bytes=spec.size_law.mean(),
            match_profile=spec.match_profile,
        )
        ratios = {node: self._isolated_best_ratio(graph.element(node), stats)
                  for node in graph.topological_order()}
        return Mapping.from_ratios(graph, ratios, cores=self.cpu_cores,
                                   gpus=self.gpus)
