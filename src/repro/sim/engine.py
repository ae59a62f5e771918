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
from typing import Dict, Iterable, List, Optional, Sequence

from repro.elements.graph import ElementGraph
from repro.hw.costs import CostModel
from repro.hw.platform import PlatformSpec
from repro.net.batch import PacketBatch
from repro.sim.kernel import SimulationSession
from repro.sim.mapping import Deployment
from repro.sim.metrics import ThroughputLatencyReport
from repro.traffic.generator import TrafficGenerator, TrafficSpec


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

        Pushes :meth:`draw_sample` of ``spec`` through ``graph`` and
        reads the element counters.  This is the one-snapshot case of
        :meth:`measure_prefixes`.

        Mutates element counters/state of ``graph``.  Callers that need
        the live graph pristine (deployment graphs about to be compared
        against a golden model, or simulated from cold state) should
        profile a :meth:`~repro.elements.graph.ElementGraph.clone`
        instead — node ids match, so the profile transfers directly.
        """
        return cls.measure_prefixes(
            graph, cls.draw_sample(spec, sample_packets, batch_size),
            (sample_packets,), batch_size)[sample_packets]

    @staticmethod
    def draw_sample(spec: TrafficSpec, sample_packets: int,
                    batch_size: int) -> List[PacketBatch]:
        """The first ``max(1, sample_packets // batch_size)`` batches of
        ``spec``'s traffic: the sample a profile of that size runs."""
        return list(TrafficGenerator(spec).batches(
            batch_size, max(1, sample_packets // batch_size)))

    @classmethod
    def measure_prefixes(cls, graph: ElementGraph,
                         sample: Sequence[PacketBatch],
                         sample_sizes: Iterable[int],
                         batch_size: int = 64) -> Dict[int, "BranchProfile"]:
        """One functional pass, one profile per requested sample size.

        The pass runs the batches of ``sample`` (from
        :meth:`draw_sample`) that the largest size needs.  The profile
        for ``n`` packets is read from the counters right after batch
        ``max(1, n // batch_size)``, so it equals ``measure(fresh_clone,
        spec, n, batch_size)``.  A deploy uses this to serve several
        consumers from a single pass.

        The pass runs the sample's packets in place, and elements such
        as NAT and IPsec rewrite them: a caller that reuses a sample
        passes each pass its own copies.
        """
        boundaries: Dict[int, List[int]] = {}
        for size in sample_sizes:
            boundaries.setdefault(max(1, size // batch_size), []).append(size)
        last = max(boundaries)
        if len(sample) < last:
            raise ValueError(f"a {max(boundaries[last])}-packet profile "
                             f"needs {last} batches, the sample has "
                             f"{len(sample)}")
        profiles: Dict[int, BranchProfile] = {}
        for index, batch in enumerate(sample[:last], start=1):
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
            **options) -> ThroughputLatencyReport:
        """Simulate ``deployment`` under ``spec`` once.

        One-shot convenience over :meth:`session`: ``options`` are the
        keyword arguments of
        :meth:`repro.sim.kernel.SimulationSession.run` (batch size and
        count, branch profile, interference, recorder, trace, faults,
        overload), forwarded unchanged.
        """
        return self.session(deployment).run(spec, **options)
