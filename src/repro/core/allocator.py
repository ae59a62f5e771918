"""Graph-partition-based task allocation (GTA, Section IV.C).

The allocator glues the pipeline together:

1. **runtime profiling** measures the traffic distribution over the
   graph (:class:`~repro.sim.engine.BranchProfile`) and derives the
   per-node traffic shares;
2. **expansion** turns offloadable elements into delta-share virtual
   instances (:mod:`repro.core.expansion`);
3. **weighting** attaches node weights (service time per batch on the
   host and on each offload device group, scaled by traffic share) and
   edge weights (PCIe transfer cost of a cut, scaled per group by its
   link) from the cost model;
4. **partitioning** runs modified Kernighan-Lin (default) or the
   lightweight agglomerative scheme over the host group and one group
   per offload device kind — none at all when no offload device is
   healthy;
5. **lowering** collapses instance assignments into per-element device
   shares and packs host-side work onto cores (LPT bin packing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.expansion import ExpandedGraph, expand_graph
from repro.core.partition import (
    HOST_GROUP,
    PartitionResult,
    agglomerative_partition,
    kernighan_lin_partition,
)
from repro.core.profiler import node_traffic_shares
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement
from repro.hw.costs import BatchStats, CostModel
from repro.hw.platform import PlatformSpec
from repro.obs import resolve_trace
from repro.sim.engine import BranchProfile
from repro.sim.mapping import Mapping, Placement
from repro.traffic.generator import TrafficSpec


@dataclass
class AllocationReport:
    """Diagnostics of one allocation."""

    partition: PartitionResult
    offload_ratios: Dict[str, float]
    core_assignment: Dict[str, str]
    cpu_core_loads: Dict[str, float]
    node_shares: Dict[str, float]
    #: The weighted expanded graph the partition ran on (kept so the
    #: validation oracle in :mod:`repro.validate` can recompute the
    #: objective and audit the partition invariants).
    expanded: ExpandedGraph
    #: Node -> offload device group -> batch fraction (``{}`` for
    #: nodes that stay wholly on the host).
    device_shares: Dict[str, Dict[str, float]]

    def summary(self) -> str:
        offloaded = {n: r for n, r in self.offload_ratios.items() if r > 0}
        return (
            f"GTA[{self.partition.algorithm}]: objective "
            f"{self.partition.objective * 1e6:.1f} us/batch, cut "
            f"{self.partition.cut_weight * 1e6:.1f} us, "
            f"{len(offloaded)}/{len(self.offload_ratios)} elements "
            f"offloaded (ratios {offloaded})"
        )


class GraphTaskAllocator:
    """NFCompass's task allocator."""

    def __init__(self, platform: Optional[PlatformSpec] = None,
                 cost_model: Optional[CostModel] = None,
                 algorithm: str = "kl",
                 delta: float = 0.1,
                 cpu_cores: Optional[List[str]] = None,
                 gpus: Optional[List[str]] = None,
                 persistent_kernel: bool = True):
        if algorithm not in ("kl", "agglomerative"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if cpu_cores is not None and not cpu_cores:
            # Unlike gpus=[], there is no plan without a host core.
            raise ValueError("cpu_cores must name at least one core")
        self.platform = platform or PlatformSpec()
        self.cost = cost_model or CostModel(self.platform)
        self.algorithm = algorithm
        self.delta = delta
        self.cpu_cores = cpu_cores or self.platform.cpu_processor_ids(
            min(6, self.platform.total_cores)
        )
        # An explicit empty list means "no GPUs" (a resilience replan
        # after a GPU crash), not "use the platform default".
        self.gpus = (list(gpus) if gpus is not None
                     else self.platform.gpu_processor_ids())
        self.persistent_kernel = persistent_kernel
        # Offload device groups (kind -> instance ids): the GPUs plus
        # any data-defined extra devices, empty groups dropped.  The
        # partitioner sees the host group and one group per kind.
        self.offload_devices: Dict[str, List[str]] = \
            self.platform.offload_device_groups()
        self.offload_devices["gpu"] = list(self.gpus)
        self.offload_devices = {group: ids for group, ids
                                in self.offload_devices.items() if ids}
        self.capacities = {HOST_GROUP: len(self.cpu_cores)}
        self.capacities.update({group: len(ids) for group, ids
                                in self.offload_devices.items()})

    # ------------------------------------------------------------------
    def allocate(self, graph: ElementGraph, spec: TrafficSpec,
                 batch_size: int = 64,
                 branch_profile: Optional[BranchProfile] = None,
                 trace=None) -> Tuple[Mapping, AllocationReport]:
        """Map ``graph`` onto the platform for traffic ``spec``.

        Without a ``branch_profile`` the allocator profiles a
        :meth:`~repro.elements.graph.ElementGraph.clone` of ``graph``,
        so the graph it maps is never run.
        """
        trace = resolve_trace(trace)
        with trace.span("allocate", graph=graph.name,
                        algorithm=self.algorithm) as alloc_span:
            if branch_profile is not None:
                profile = branch_profile
            else:
                with trace.span("profile", graph=graph.name):
                    profile = BranchProfile.measure(
                        graph.clone(), spec,
                        sample_packets=max(256, batch_size * 4),
                        batch_size=batch_size,
                    )
            shares = node_traffic_shares(graph, profile)
            with trace.span("expand", delta=self.delta) as span:
                expanded = expand_graph(graph, delta=self.delta)
                self._attach_weights(expanded, spec, batch_size, shares)
                span.set(instances=len(expanded.instances))
                trace.count("expansion.virtual_instances",
                            len(expanded.instances))

            with trace.span("partition",
                            algorithm=self.algorithm) as span:
                partition_fn = (kernighan_lin_partition
                                if self.algorithm == "kl"
                                else agglomerative_partition)
                partition = partition_fn(
                    expanded.pgraph, self.capacities,
                    link_costs=expanded.pgraph.graph["link_costs"],
                    trace=trace)
                span.set(objective=partition.objective,
                         cut_weight=partition.cut_weight,
                         gpu_instances=len(partition.gpu_nodes))

            with trace.span("lower"):
                device_shares = self._collapse_device_shares(
                    graph, expanded, partition
                )
                ratios = {node_id: sum(fractions.values(), 0.0)
                          for node_id, fractions in device_shares.items()}
                mapping, core_assignment, core_loads = self._lower(
                    graph, spec, batch_size, shares, device_shares, ratios
                )
            alloc_span.set(
                offloaded=sum(1 for r in ratios.values() if r > 0)
            )
        report = AllocationReport(
            partition=partition,
            offload_ratios=ratios,
            core_assignment=core_assignment,
            cpu_core_loads=core_loads,
            node_shares=shares,
            expanded=expanded,
            device_shares=device_shares,
        )
        return mapping, report

    # ------------------------------------------------------------------
    def _attach_weights(self, expanded: ExpandedGraph, spec: TrafficSpec,
                        batch_size: int, shares: Dict[str, float]) -> None:
        """Weight the nodes, edges and links of the partition graph.

        Each node gets ``cpu_time`` and ``group_times``: its service
        time on the host and on every offload group, through the
        group's representative device's cost hooks
        (``device_batch_timing``).  Groups whose device does not
        support an element are omitted, which the partitioners read
        as +inf.  Per-group link-cost scale factors (relative to the
        PCIe-based edge weights) land on the graph's ``link_costs``
        attribute.
        """
        mean_bytes = spec.size_law.mean()
        pgraph = expanded.pgraph
        stats = BatchStats(
            batch_size=batch_size,
            mean_packet_bytes=mean_bytes,
            match_profile=spec.match_profile,
        )
        group_devices = {
            group: self.cost.device_for(ids[0])
            for group, ids in self.offload_devices.items()
        }
        # Weight each virtual instance with its *share* of the whole
        # element's full-batch service time.  Evaluating the cost model
        # on tiny per-slice batches would charge every slice the full
        # per-batch fixed costs (GPU under-occupancy, batch management)
        # even though the slices of one element execute as one batch.
        full_batch_times: Dict[str, Tuple[float, Dict[str, float]]] = {}
        for node_id in expanded.original.nodes:
            element = expanded.original.element(node_id)
            times: Dict[str, float] = {}
            if (isinstance(element, OffloadableElement)
                    and element.offloadable):
                for group, device in group_devices.items():
                    if not device.supports(element.kind):
                        continue
                    timing = self.cost.device_batch_timing(
                        element, stats, device,
                        persistent_kernel=self.persistent_kernel,
                    )
                    times[group] = timing.launch + timing.kernel
            full_batch_times[node_id] = (
                self.cost.cpu_batch_seconds(element, stats), times)
        for instance_id, instance in expanded.instances.items():
            node_id = instance.original_node
            node_share = shares.get(node_id, 1.0)
            cpu_full, group_full = full_batch_times[node_id]
            attrs = pgraph.nodes[instance_id]
            attrs["cpu_time"] = cpu_full * instance.share * node_share
            attrs["pinned"] = instance.pinned
            attrs["group"] = node_id
            group_times = {HOST_GROUP: attrs["cpu_time"]}
            for group, full in group_full.items():
                group_times[group] = full * instance.share * node_share
            attrs["group_times"] = group_times
        # A cut edge's cost is its share of the element's batch
        # transfer.  The slices of one element move in ONE DMA, so the
        # per-transfer latency is amortized across the bundle: weight =
        # share x transfer_time(full batch), not transfer_time(share x
        # batch) — the latter would charge the DMA setup once per
        # slice and make any partial offload look prohibitively
        # expensive.  The GPU's PCIe link prices the reference weight;
        # ``link_costs`` rescales it per group.
        full_transfer = self.platform.gpu.link.transfer_seconds(
            batch_size * mean_bytes, packet_count=batch_size
        )
        for u, v, data in pgraph.edges(data=True):
            data["weight"] = data.get("share", 0.0) * full_transfer
        link_costs: Dict[str, float] = {}
        for group, device in group_devices.items():
            if device.link is None or full_transfer <= 0:
                link_costs[group] = 1.0
                continue
            link_costs[group] = device.link.transfer_seconds(
                batch_size * mean_bytes, packet_count=batch_size
            ) / full_transfer
        pgraph.graph["link_costs"] = link_costs

    @staticmethod
    def _collapse_device_shares(graph: ElementGraph,
                                expanded: ExpandedGraph,
                                partition: PartitionResult
                                ) -> Dict[str, Dict[str, float]]:
        """Per-node offload-group slice fractions."""
        offload_groups = {
            group: nodes
            for group, nodes in partition.groups.items()
            if group != HOST_GROUP
        }
        device_shares: Dict[str, Dict[str, float]] = {}
        for node_id in graph.nodes:
            element = graph.element(node_id)
            if (isinstance(element, OffloadableElement)
                    and element.offloadable):
                device_shares[node_id] = expanded.group_shares(
                    node_id, offload_groups
                )
            else:
                device_shares[node_id] = {}
        return device_shares

    def _lower(self, graph: ElementGraph, spec: TrafficSpec,
               batch_size: int, shares: Dict[str, float],
               device_shares: Dict[str, Dict[str, float]],
               ratios: Dict[str, float]
               ) -> Tuple[Mapping, Dict[str, str], Dict[str, float]]:
        """Lower group shares into share-vector placements.

        Host-side work is LPT-packed onto cores; each offload group
        round-robins its device instances independently.
        """
        mean_bytes = spec.size_law.mean()
        cpu_work: List[Tuple[float, str]] = []
        for node_id in graph.nodes:
            element = graph.element(node_id)
            host_fraction = 1.0 - ratios[node_id]
            if host_fraction <= 0:
                cpu_work.append((0.0, node_id))
                continue
            stats = BatchStats(
                batch_size=max(1, round(batch_size * host_fraction)),
                mean_packet_bytes=mean_bytes,
                match_profile=spec.match_profile,
            )
            load = self.cost.cpu_batch_seconds(element, stats) \
                * shares.get(node_id, 1.0)
            cpu_work.append((load, node_id))

        core_loads: Dict[str, float] = {core: 0.0
                                        for core in self.cpu_cores}
        core_assignment: Dict[str, str] = {}
        for load, node_id in sorted(cpu_work, reverse=True):
            lightest = min(core_loads, key=core_loads.get)
            core_assignment[node_id] = lightest
            core_loads[lightest] += load

        placements: Dict[str, Placement] = {}
        cursors: Dict[str, int] = {group: 0
                                   for group in self.offload_devices}
        for node_id in graph.nodes:
            core = core_assignment[node_id]
            host_fraction = 1.0 - ratios[node_id]
            vector: Dict[str, float] = {}
            if host_fraction > 1e-9:
                vector[core] = host_fraction
            for group, fraction in device_shares[node_id].items():
                instances = self.offload_devices[group]
                device_id = instances[cursors[group] % len(instances)]
                cursors[group] += 1
                vector[device_id] = vector.get(device_id, 0.0) + fraction
            placements[node_id] = Placement(shares=vector, host=core)
        return Mapping(placements), core_assignment, core_loads
