"""The batch-level simulation engine (facade over the event kernel).

The engine plays batches through a :class:`~repro.sim.mapping.Deployment`
on the modelled platform.  Each batch is a token that flows through the
element DAG in topological order; element service times come from the
:class:`~repro.hw.costs.CostModel`; processors (CPU cores, GPUs) and
PCIe links are serially reusable resources with FCFS queueing, so
pipelining across batches and parallelism across branches emerge
naturally.

The scheduling machinery lives in :mod:`repro.sim.kernel`:
:class:`~repro.sim.kernel.ResourceTimeline` holds the per-resource
busy intervals (blocked gap index: O(B + n/B) gap fills) and
:class:`~repro.sim.kernel.SimulationSession` caches per-deployment
invariants across runs.  :class:`SimulationEngine` here is a thin
facade that builds a fresh session per call; callers that evaluate one
deployment repeatedly should hold a session via :meth:`SimulationEngine.session`.

Branching behaviour (which fraction of traffic leaves each classifier
port, which fraction each element drops) is supplied by a
:class:`BranchProfile`, which can be measured by functionally running
sample packets through the graph — exactly the paper's runtime traffic
profiling ("sampling the next element destination of packets at each
element").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.elements.graph import ElementGraph
from repro.hw.costs import CostModel
from repro.hw.platform import PlatformSpec
from repro.sim.kernel import ResourceTimeline, SimulationSession
from repro.sim.mapping import Deployment
from repro.sim.metrics import ThroughputLatencyReport
from repro.traffic.generator import TrafficGenerator, TrafficSpec

#: Backwards-compatible alias: the legacy scheduler class name.  The
#: timeline is a drop-in replacement for scheduling semantics; the
#: interval storage moved behind :meth:`ResourceTimeline.intervals`.
_Resources = ResourceTimeline


@dataclass
class BranchProfile:
    """Measured traffic distribution over a graph.

    ``port_fractions[node][port]`` is the fraction of the node's
    surviving output leaving through ``port``; ``drop_fractions[node]``
    the fraction of its input the node drops.  Ports of duplicating
    elements (Tee) each carry fraction 1.0.
    """

    port_fractions: Dict[str, Dict[int, float]] = field(default_factory=dict)
    drop_fractions: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def measure(cls, graph: ElementGraph, spec: TrafficSpec,
                sample_packets: int = 512,
                batch_size: int = 64) -> "BranchProfile":
        """Runtime profiling: push sample traffic, read the counters.

        Pushes ``max(1, sample_packets // batch_size)`` batches of
        ``spec``'s traffic through ``graph`` and reads the element
        counters.  This is the one-snapshot case of
        :meth:`measure_prefixes`.

        Mutates element counters/state of ``graph``.  Callers that need
        the live graph pristine (deployment graphs about to be compared
        against a golden model, or simulated from cold state) should
        profile a :meth:`~repro.elements.graph.ElementGraph.clone`
        instead — node ids match, so the profile transfers directly.
        """
        return cls.measure_prefixes(graph, spec, (sample_packets,),
                                    batch_size)[sample_packets]

    @classmethod
    def measure_prefixes(cls, graph: ElementGraph, spec: TrafficSpec,
                         sample_sizes: Iterable[int],
                         batch_size: int = 64) -> Dict[int, "BranchProfile"]:
        """One functional pass, one profile per requested sample size.

        The pass runs as many batches as the largest sample needs.
        The profile for ``n`` packets is read from the counters right
        after batch ``max(1, n // batch_size)``.  The generator's
        batches are a deterministic sequence, so that snapshot equals
        ``measure(fresh_clone, spec, n, batch_size)``.  A deploy uses
        this to serve several consumers from a single pass.
        """
        boundaries: Dict[int, List[int]] = {}
        for size in sample_sizes:
            boundaries.setdefault(max(1, size // batch_size), []).append(size)
        profiles: Dict[int, BranchProfile] = {}
        generator = TrafficGenerator(spec)
        batches = generator.batches(batch_size, max(boundaries))
        for index, batch in enumerate(batches, start=1):
            graph.run_batch(batch)
            for size in boundaries.get(index, ()):
                profiles[size] = cls._read_counters(graph)
        return profiles

    @classmethod
    def _read_counters(cls, graph: ElementGraph) -> "BranchProfile":
        profile = cls()
        for node_id in graph.nodes:
            element = graph.element(node_id)
            processed = element.packets_processed
            if processed <= 0:
                continue
            out_total = sum(element.port_packet_counts.values())
            profile.drop_fractions[node_id] = (
                element.packets_dropped / processed
            )
            if element.kind == "Tee":
                profile.port_fractions[node_id] = {
                    port: 1.0 for port in element.port_packet_counts
                }
            elif out_total > 0:
                profile.port_fractions[node_id] = {
                    port: count / out_total
                    for port, count in element.port_packet_counts.items()
                    if count > 0
                }
        return profile

    def fractions_for(self, graph: ElementGraph,
                      node_id: str) -> Dict[int, float]:
        """Port fractions for a node, defaulting to uniform."""
        measured = self.port_fractions.get(node_id)
        connected_ports = sorted(
            {e.src_port for e in graph.out_edges(node_id)}
        )
        if not connected_ports:
            return {}
        element = graph.element(node_id)
        if element.kind == "Tee":
            return {port: 1.0 for port in connected_ports}
        if measured:
            usable = {p: f for p, f in measured.items()
                      if p in connected_ports}
            total = sum(usable.values())
            if total > 0:
                return {p: f / total for p, f in usable.items()}
        uniform = 1.0 / len(connected_ports)
        return {port: uniform for port in connected_ports}

    def drop_for(self, node_id: str) -> float:
        return min(1.0, max(0.0, self.drop_fractions.get(node_id, 0.0)))


class SimulationEngine:
    """Runs deployments against traffic specs."""

    def __init__(self, platform: Optional[PlatformSpec] = None,
                 cost_model: Optional[CostModel] = None):
        self.platform = platform or PlatformSpec()
        self.cost = cost_model or CostModel(self.platform)

    # ------------------------------------------------------------------
    def session(self, deployment: Deployment) -> SimulationSession:
        """Prepare ``deployment`` for repeated runs.

        Validates once and precomputes topological order, sink/source
        sets, per-node placements and GPU boundary-crossing flags;
        every :meth:`~repro.sim.kernel.SimulationSession.run` and
        :meth:`~repro.sim.kernel.SimulationSession.measure_capacity`
        on the returned session reuses them.
        """
        return SimulationSession(self, deployment)

    def run(self, deployment: Deployment, spec: TrafficSpec,
            batch_size: int = 64,
            batch_count: int = 200,
            branch_profile: Optional[BranchProfile] = None,
            cpu_time_inflation: float = 1.0,
            co_run_pressure_bytes: float = 0.0,
            gpu_corun_kernels: int = 0,
            recorder=None, trace=None,
            overload=None) -> ThroughputLatencyReport:
        """Simulate ``batch_count`` batches of ``batch_size`` packets.

        One-shot convenience over :meth:`session`; see
        :meth:`repro.sim.kernel.SimulationSession.run` for parameter
        semantics.
        """
        return self.session(deployment).run(
            spec, batch_size=batch_size, batch_count=batch_count,
            branch_profile=branch_profile,
            cpu_time_inflation=cpu_time_inflation,
            co_run_pressure_bytes=co_run_pressure_bytes,
            gpu_corun_kernels=gpu_corun_kernels,
            recorder=recorder,
            trace=trace,
            overload=overload,
        )

    # ------------------------------------------------------------------
    def measure_capacity(self, deployment: Deployment, spec: TrafficSpec,
                         batch_size: int = 64,
                         batch_count: int = 200,
                         branch_profile: Optional[BranchProfile] = None,
                         saturation_gbps: float = 200.0,
                         **interference) -> float:
        """Saturation throughput in Gbps (offered load >> capacity).

        ``saturation_gbps`` sets the offered load used to saturate the
        pipeline; the effective load is the larger of it and the
        spec's own offered load.
        """
        return self.session(deployment).measure_capacity(
            spec, batch_size=batch_size, batch_count=batch_count,
            branch_profile=branch_profile,
            saturation_gbps=saturation_gbps, **interference)
