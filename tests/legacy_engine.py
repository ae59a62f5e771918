"""Frozen pre-kernel simulation engine: the test oracle.

This is the original batch-level engine as it was before the
event-kernel rewrite (``repro.sim.kernel``): a per-resource interval
list with an O(n) linear scan + O(n) insert per task, and a monolithic
run loop that re-derives every graph invariant per call.

It lives under ``tests/`` because nothing in the product runs it; it
is the reference the kernel is checked against:

1. **Golden parity** — ``tests/sim/test_golden_parity.py`` and
   ``TestLegacyParitySmoke`` in ``tests/sim/test_kernel.py`` replay
   seeded scenarios through both engines and require ``==``
   :class:`~repro.sim.metrics.ThroughputLatencyReport` outputs, so any
   semantic drift in the kernel is caught mechanically.
2. **Placement oracle** — the Hypothesis differential in
   ``tests/properties/test_timeline_properties.py`` compares every
   :class:`~repro.sim.kernel.ResourceTimeline` placement against
   :class:`_LinearResources`.

Its value is being frozen: do not "fix" or speed it up.  The only
edits since the freeze are four reads that now go through the
share-vector :class:`~repro.sim.mapping.Placement` API, which lost its
binary fields: ``cpu_processor`` (also ``cpu_processor or "cpu0"``)
reads ``host``, ``offload_ratio`` reads ``offload_total``,
``gpu_processor`` reads the first key of ``offload_shares``, and
``gpu_only`` reads ``fully_offloaded``.  On placements built by
:meth:`~repro.sim.mapping.Placement.split` every translation is exact.
Product code must not import this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.hw.costs import BatchStats, CostModel
from repro.hw.platform import PlatformSpec
from repro.elements.offload import OffloadableElement
from repro.sim.mapping import Deployment, Placement
from repro.sim.metrics import (
    LatencyStats,
    OverheadBreakdown,
    ThroughputLatencyReport,
)
from repro.traffic.generator import TrafficSpec

_EPSILON_PACKETS = 1e-9


@dataclass
class _LinearResources:
    """The legacy gap-filling scheduler: linear scan, linear insert."""

    intervals: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=dict
    )
    busy: Dict[str, float] = field(default_factory=dict)

    def schedule(self, resource: str, ready: float,
                 duration: float) -> Tuple[float, float]:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        slots = self.intervals.setdefault(resource, [])
        self.busy[resource] = self.busy.get(resource, 0.0) + duration
        start = ready
        insert_at = len(slots)
        for index, (slot_start, slot_end) in enumerate(slots):
            if slot_end <= start:
                continue
            if slot_start >= start + duration:
                insert_at = index
                break
            start = max(start, slot_end)
        else:
            insert_at = len(slots)
        end = start + duration
        if duration > 0:
            slots.insert(insert_at, (start, end))
        return start, end


def _offload_device(placement: Placement) -> str:
    """The binary engine's one offload device (its ``gpu_processor``)."""
    return next(iter(placement.offload_shares))


@dataclass
class _Token:
    ready: float
    packets: float


class LegacySimulationEngine:
    """The pre-refactor engine, loop and all.  See module docstring."""

    def __init__(self, platform: Optional[PlatformSpec] = None,
                 cost_model: Optional[CostModel] = None):
        self.platform = platform or PlatformSpec()
        self.cost = cost_model or CostModel(self.platform)

    # ------------------------------------------------------------------
    def run(self, deployment: Deployment, spec: TrafficSpec,
            batch_size: int = 64,
            batch_count: int = 200,
            branch_profile=None,
            cpu_time_inflation: float = 1.0,
            co_run_pressure_bytes: float = 0.0,
            gpu_corun_kernels: int = 0,
            recorder=None) -> ThroughputLatencyReport:
        from repro.sim.engine import BranchProfile

        deployment.validate()
        graph = deployment.graph
        profile = branch_profile or BranchProfile()
        resources = _LinearResources()
        overheads = OverheadBreakdown()
        order = graph.topological_order()
        sources = set(graph.sources())
        sinks = set(graph.sinks())
        mean_bytes = spec.size_law.mean()
        inter_batch = batch_size * spec.mean_packet_interval()

        delivered_packets = 0.0
        delivered_bytes = 0.0
        dropped_packets = 0.0
        latencies: List[float] = []
        first_arrival = 0.0
        last_completion = 0.0

        for batch_index in range(batch_count):
            arrival = batch_index * inter_batch
            inbox: Dict[str, List[_Token]] = {n: [] for n in order}
            for node in sources:
                inbox[node].append(_Token(ready=arrival,
                                          packets=float(batch_size)))
            batch_completion = arrival
            batch_delivered = 0.0
            for node_id in order:
                tokens = inbox[node_id]
                if not tokens:
                    continue
                ready = max(t.ready for t in tokens)
                packets = sum(t.packets for t in tokens)
                if packets <= _EPSILON_PACKETS:
                    continue
                placement = deployment.mapping[node_id]
                element = graph.element(node_id)
                if len(tokens) > 1:
                    merge_time = self.cost.merge_seconds(
                        max(1, round(packets))
                    )
                    _start, ready = resources.schedule(
                        placement.host, ready, merge_time
                    )
                    overheads.batch_merge += merge_time

                completion = self._process_node(
                    deployment, node_id, element, placement, ready,
                    packets, mean_bytes, spec, resources, overheads,
                    cpu_time_inflation, co_run_pressure_bytes,
                    gpu_corun_kernels,
                )
                if recorder is not None:
                    recorder.record_node(batch_index, node_id, ready,
                                         completion, packets)

                drop_frac = profile.drop_for(node_id)
                survivors = packets * (1.0 - drop_frac)
                dropped_packets += packets - survivors

                if node_id in sinks:
                    if survivors > _EPSILON_PACKETS:
                        batch_delivered += survivors
                        batch_completion = max(batch_completion, completion)
                    continue

                fractions = profile.fractions_for(graph, node_id)
                connected = [p for p in fractions if fractions[p] > 0]
                is_duplicator = element.kind == "Tee"
                if len(connected) > 1 and not is_duplicator:
                    split_time = self.cost.split_seconds(
                        max(1, round(survivors))
                    )
                    _start, completion = resources.schedule(
                        placement.host,
                        completion, split_time,
                    )
                    overheads.batch_split += split_time
                if is_duplicator and len(connected) > 1:
                    dup_time = self.cost.duplicate_seconds(
                        max(1, round(survivors)),
                        survivors * mean_bytes * (len(connected) - 1),
                    )
                    _start, completion = resources.schedule(
                        placement.host,
                        completion, dup_time,
                    )
                    overheads.duplication += dup_time
                for port, fraction in fractions.items():
                    share = survivors * fraction
                    if share <= _EPSILON_PACKETS:
                        continue
                    for edge in graph.out_edges(node_id, port=port):
                        inbox[edge.dst].append(
                            _Token(ready=completion, packets=share)
                        )

            if recorder is not None:
                recorder.record_batch(batch_index, arrival,
                                      batch_completion, batch_delivered)
            if batch_delivered > _EPSILON_PACKETS:
                delivered_packets += batch_delivered
                delivered_bytes += batch_delivered * mean_bytes
                latencies.append(batch_completion - arrival)
                last_completion = max(last_completion, batch_completion)

        makespan = max(last_completion - first_arrival,
                       inter_batch * batch_count)
        return ThroughputLatencyReport(
            name=deployment.name,
            offered_gbps=spec.offered_gbps,
            delivered_packets=delivered_packets,
            delivered_bytes=delivered_bytes,
            dropped_packets=dropped_packets,
            makespan_seconds=makespan,
            latency=LatencyStats.from_samples(latencies),
            overheads=overheads,
            processor_busy_seconds=dict(resources.busy),
        )

    # ------------------------------------------------------------------
    def _process_node(self, deployment: Deployment, node_id: str,
                      element, placement: Placement, ready: float,
                      packets: float, mean_bytes: float,
                      spec: TrafficSpec, resources: _LinearResources,
                      overheads: OverheadBreakdown,
                      cpu_time_inflation: float,
                      co_run_pressure_bytes: float,
                      gpu_corun_kernels: int) -> float:
        ratio = placement.offload_total if (
            isinstance(element, OffloadableElement) and element.offloadable
        ) else 0.0
        cpu_share = packets * (1.0 - ratio)
        gpu_share = packets * ratio

        cpu_end = ready
        if cpu_share > _EPSILON_PACKETS:
            stats = BatchStats(
                batch_size=max(1, round(cpu_share)),
                mean_packet_bytes=mean_bytes,
                match_profile=spec.match_profile,
            )
            service = self.cost.cpu_batch_seconds(
                element, stats,
                co_run_pressure_bytes=co_run_pressure_bytes,
            ) * cpu_time_inflation
            _start, cpu_end = resources.schedule(
                placement.host, ready, service
            )
            overheads.cpu_compute += service

        gpu_end = ready
        if gpu_share > _EPSILON_PACKETS:
            gpu_end = self._schedule_gpu(
                deployment, node_id, element, placement, ready,
                gpu_share, mean_bytes, spec, resources, overheads,
                gpu_corun_kernels,
            )

        completion = max(cpu_end, gpu_end)

        if 0.0 < ratio < 1.0:
            merge_time = self.cost.merge_seconds(max(1, round(packets)))
            _start, completion = resources.schedule(
                placement.host, completion, merge_time
            )
            overheads.batch_merge += merge_time

        if deployment.stateful_reassembly and ratio > 0.0:
            reasm = self.cost.reassembly_seconds(max(1, round(packets)))
            _start, completion = resources.schedule(
                placement.host, completion, reasm
            )
            overheads.reassembly += reasm

        return completion

    def _schedule_gpu(self, deployment: Deployment, node_id: str,
                      element, placement: Placement, ready: float,
                      gpu_share: float, mean_bytes: float,
                      spec: TrafficSpec, resources: _LinearResources,
                      overheads: OverheadBreakdown,
                      gpu_corun_kernels: int) -> float:
        stats = BatchStats(
            batch_size=max(1, round(gpu_share)),
            mean_packet_bytes=mean_bytes,
            match_profile=spec.match_profile,
        )
        timing = self.cost.gpu_batch_timing(
            element, stats,
            persistent_kernel=deployment.persistent_kernel,
            co_running_kernels=gpu_corun_kernels,
        )
        gpu = _offload_device(placement)
        pcie_h2d = f"pcie:{gpu}:h2d"
        pcie_d2h = f"pcie:{gpu}:d2h"

        pays_h2d = self._crosses_into_gpu(deployment, node_id, placement)
        pays_d2h = self._crosses_out_of_gpu(deployment, node_id, placement)

        clock = ready
        if pays_h2d and timing.h2d > 0:
            _start, clock = resources.schedule(pcie_h2d, clock, timing.h2d)
            overheads.pcie_transfer += timing.h2d

        kernel_time = timing.launch + timing.kernel
        _start, clock = resources.schedule(gpu, clock, kernel_time)
        overheads.kernel_launch += timing.launch
        overheads.gpu_kernel += timing.kernel

        if pays_d2h and timing.d2h > 0:
            _start, clock = resources.schedule(pcie_d2h, clock, timing.d2h)
            overheads.pcie_transfer += timing.d2h
        return clock

    @staticmethod
    def _crosses_into_gpu(deployment: Deployment, node_id: str,
                          placement: Placement) -> bool:
        if not placement.fully_offloaded:
            return True
        graph = deployment.graph
        predecessors = graph.predecessors(node_id)
        if not predecessors:
            return True
        for pred in predecessors:
            pred_placement = deployment.mapping.get(pred)
            if (pred_placement is None or not pred_placement.fully_offloaded
                    or _offload_device(pred_placement)
                    != _offload_device(placement)):
                return True
        return False

    @staticmethod
    def _crosses_out_of_gpu(deployment: Deployment, node_id: str,
                            placement: Placement) -> bool:
        if not placement.fully_offloaded:
            return True
        graph = deployment.graph
        successors = graph.successors(node_id)
        if not successors:
            return True
        for succ in successors:
            succ_placement = deployment.mapping.get(succ)
            if (succ_placement is None or not succ_placement.fully_offloaded
                    or _offload_device(succ_placement)
                    != _offload_device(placement)):
                return True
        return False

    # ------------------------------------------------------------------
    def measure_capacity(self, deployment: Deployment, spec: TrafficSpec,
                         batch_size: int = 64,
                         batch_count: int = 200,
                         branch_profile=None,
                         **interference) -> float:
        saturated = TrafficSpec(
            offered_gbps=max(spec.offered_gbps, 200.0),
            size_law=spec.size_law,
            protocol=spec.protocol,
            ip_version=spec.ip_version,
            flow_count=spec.flow_count,
            seed=spec.seed,
            payload_maker=spec.payload_maker,
            match_profile=spec.match_profile,
        )
        report = self.run(deployment, saturated, batch_size=batch_size,
                          batch_count=batch_count,
                          branch_profile=branch_profile, **interference)
        return report.throughput_gbps
