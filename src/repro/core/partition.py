"""Graph partitioning algorithms (Section IV.C.3).

Two algorithms split the expanded, weighted element graph into a CPU
side and a GPU side; their multiway counterparts
(:func:`multiway_kl_partition`, :func:`multiway_agglomerative_partition`)
generalize the split to an arbitrary set of device *groups* (one per
offload-device kind, plus the host group) and reduce exactly to the
binary implementations when the group set is ``{"cpu", "gpu"}``:

- :func:`kernighan_lin_partition` — a modified Kernighan–Lin/FM
  refinement: starting from a greedy initial partition, passes of
  locked single-node moves are applied, keeping the best prefix of
  each pass, until no pass improves the objective.
- :func:`agglomerative_partition` — the paper's lightweight
  O(k log k) seed-based clustering: pick a CPU seed and a GPU seed,
  sort edges by communication weight, and merge clusters over the
  heaviest edges first so expensive edges are never cut; leftover
  clusters go to whichever side improves the objective least.

The objective models the per-batch pipeline bottleneck:

    max(heaviest CPU element, cpu_load / cores,
        heaviest GPU element, gpu_load / gpus)
      + CUT_PIPELINE_FACTOR * cut_transfer_cost

where ``cpu_load``/``gpu_load`` are the summed service times of each
side and the cut cost is the PCIe transfer time of edges crossing the
boundary (transfers run on dedicated DMA engines, so they form their
own pipeline stage) — "maximize resource utilization and throughput
while minimizing communication costs".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.obs import resolve_trace

#: How much of the PCIe cut contributes to the per-batch makespan.
#: 0 would mean transfers overlap perfectly with compute; 1 would mean
#: they serialize; the engine's duplex DMA pipelining sits in between.
CUT_PIPELINE_FACTOR = 0.5

#: The device group holding the CPU cores (never charged link costs).
HOST_GROUP = "cpu"


@dataclass
class PartitionResult:
    """Outcome of one partitioning run.

    Binary runs fill ``cpu_nodes``/``gpu_nodes``; multiway runs
    additionally fill ``groups`` (device group -> node set) and
    ``group_load``.  :meth:`device_groups`/:meth:`group_of` work for
    both — binary results derive the two-group view on the fly, so
    callers that mutate ``gpu_nodes`` (the validation oracle does)
    stay consistent.
    """

    cpu_nodes: Set[str]
    gpu_nodes: Set[str]
    objective: float
    cut_weight: float
    cpu_load: float
    gpu_load: float
    algorithm: str
    passes: int = 0
    #: Multiway assignment: device group name -> node set.  ``None``
    #: for binary results (derived from cpu_nodes/gpu_nodes instead).
    groups: Optional[Dict[str, Set[str]]] = None
    #: Summed service time per device group (multiway runs).
    group_load: Optional[Dict[str, float]] = None

    def device_groups(self) -> Dict[str, Set[str]]:
        """Device group name -> node set; offload groups first."""
        if self.groups is not None:
            return self.groups
        return {"gpu": self.gpu_nodes, HOST_GROUP: self.cpu_nodes}

    def group_of(self, node: str) -> str:
        """The device group a node was assigned to.

        Offload groups take precedence over the host group; unknown
        nodes raise a ``KeyError`` naming the node and the known
        groups.
        """
        host_hit = None
        for group, nodes in self.device_groups().items():
            if node in nodes:
                if group == HOST_GROUP:
                    host_hit = group
                else:
                    return group
        if host_hit is not None:
            return host_hit
        raise KeyError(
            f"node {node!r} is not in any partition group; "
            f"known groups: "
            f"{ {g: len(n) for g, n in self.device_groups().items()} }"
        )


def _loads(graph: nx.Graph, cpu_nodes: Set[str],
           gpu_nodes: Set[str]) -> Tuple[float, float]:
    cpu_load = sum(graph.nodes[n].get("cpu_time", 0.0) for n in cpu_nodes)
    gpu_load = sum(graph.nodes[n].get("gpu_time", 0.0) for n in gpu_nodes)
    return cpu_load, gpu_load


def _cut_weight(graph: nx.Graph, gpu_nodes: Set[str]) -> float:
    cut = 0.0
    for u, v, data in graph.edges(data=True):
        if (u in gpu_nodes) != (v in gpu_nodes):
            cut += data.get("weight", 0.0)
    return cut


def _group_of(graph: nx.Graph, node: str) -> str:
    return graph.nodes[node].get("group", node)


def _group_loads(graph: nx.Graph, gpu_nodes: Set[str]
                 ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-element-group CPU-side and GPU-side sums.

    The slices of one original element execute on one core (CPU side)
    or as one kernel stream (GPU side), so the pipeline bottleneck is
    the heaviest *group*, not the raw load divided by core count.
    """
    cpu_groups: Dict[str, float] = {}
    gpu_groups: Dict[str, float] = {}
    for node, data in graph.nodes(data=True):
        group = data.get("group", node)
        if node in gpu_nodes:
            gpu_groups[group] = gpu_groups.get(group, 0.0) \
                + data.get("gpu_time", 0.0)
        else:
            cpu_groups[group] = cpu_groups.get(group, 0.0) \
                + data.get("cpu_time", 0.0)
    return cpu_groups, gpu_groups


def evaluate(graph: nx.Graph, gpu_nodes: Set[str],
             cpu_cores: int = 1,
             gpu_units: int = 1) -> Tuple[float, float, float, float]:
    """Return (objective, cut, cpu_load, gpu_load).

    The objective approximates the per-batch pipeline bottleneck:
    ``max(heaviest CPU element, cpu_load / cores, heaviest GPU
    element, gpu_load) + cut`` — an element's CPU share is pinned to a
    single core, so spreading across cores cannot shrink it below the
    heaviest single element.
    """
    all_nodes = set(graph.nodes)
    cpu_nodes = all_nodes - gpu_nodes
    cpu_load, gpu_load = _loads(graph, cpu_nodes, gpu_nodes)
    cut = _cut_weight(graph, gpu_nodes)
    cpu_groups, gpu_groups = _group_loads(graph, gpu_nodes)
    cpu_bottleneck = max(
        max(cpu_groups.values(), default=0.0),
        cpu_load / max(1, cpu_cores),
    )
    gpu_bottleneck = max(
        max(gpu_groups.values(), default=0.0),
        gpu_load / max(1, gpu_units),
    )
    # PCIe transfers partially pipeline with compute (dedicated DMA
    # engines, but shared batch lifetimes), so the cut contributes at
    # CUT_PIPELINE_FACTOR rather than fully serially.
    objective = (max(cpu_bottleneck, gpu_bottleneck)
                 + CUT_PIPELINE_FACTOR * cut)
    return objective, cut, cpu_load, gpu_load


def _movable(graph: nx.Graph, node: str) -> bool:
    return graph.nodes[node].get("pinned") != "cpu"


def _greedy_initial(graph: nx.Graph, cpu_cores: int,
                    gpu_units: int = 1, trace=None) -> Set[str]:
    """Seed the KL refinement: offload nodes whose GPU time is cheaper
    than their fair share of CPU time, cheapest-relative first.

    Each accepted candidate moves one delta-share virtual instance to
    the GPU side, i.e. one offload-ratio step for its element; the
    steps tried are counted on the trace.
    """
    trace = resolve_trace(trace)
    gpu_nodes: Set[str] = set()
    candidates = [n for n in graph.nodes if _movable(graph, n)]
    candidates.sort(
        key=lambda n: (graph.nodes[n].get("gpu_time", float("inf"))
                       / max(1e-12, graph.nodes[n].get("cpu_time", 1e-12)))
    )
    best = evaluate(graph, gpu_nodes, cpu_cores, gpu_units)[0]
    trace.count("partition.offload_steps_tried", len(candidates))
    for node in candidates:
        trial = gpu_nodes | {node}
        objective = evaluate(graph, trial, cpu_cores, gpu_units)[0]
        if objective < best:
            gpu_nodes = trial
            best = objective
    return gpu_nodes


def kernighan_lin_partition(graph: nx.Graph, cpu_cores: int = 1,
                            max_passes: int = 8,
                            initial_gpu: Optional[Set[str]] = None,
                            gpu_units: int = 1,
                            trace=None) -> PartitionResult:
    """Modified KL/FM partitioning with pinned-node support."""
    trace = resolve_trace(trace)
    applied_moves = 0
    gpu_nodes = set(initial_gpu) if initial_gpu is not None \
        else _greedy_initial(graph, cpu_cores, gpu_units, trace=trace)
    gpu_nodes = {n for n in gpu_nodes if _movable(graph, n)}
    best_objective = evaluate(graph, gpu_nodes, cpu_cores, gpu_units)[0]

    passes = 0
    for _pass in range(max_passes):
        passes += 1
        locked: Set[str] = set()
        trail: List[Tuple[str, float]] = []
        working = set(gpu_nodes)
        current = best_objective
        movable_nodes = [n for n in graph.nodes if _movable(graph, n)]
        # Incremental state: moving one node updates loads and cut in
        # O(degree + groups) rather than re-scanning the whole graph.
        _obj, cut, cpu_load, gpu_load = evaluate(graph, working,
                                                 cpu_cores, gpu_units)
        cpu_groups, gpu_groups = _group_loads(graph, working)

        def _objective_after(node: str) -> Tuple[float, float]:
            """(objective, d_cut) if ``node`` were toggled."""
            on_gpu = node in working
            d_cut = 0.0
            for neighbor, data in graph[node].items():
                weight = data.get("weight", 0.0)
                if (neighbor in working) == on_gpu:
                    d_cut += weight  # same side now, cut after the move
                else:
                    d_cut -= weight
            node_cpu = graph.nodes[node].get("cpu_time", 0.0)
            node_gpu = graph.nodes[node].get("gpu_time", 0.0)
            group = _group_of(graph, node)
            new_cpu_load = cpu_load + (node_cpu if on_gpu else -node_cpu)
            new_gpu_load = gpu_load + (-node_gpu if on_gpu else node_gpu)
            cpu_group_delta = node_cpu if on_gpu else -node_cpu
            gpu_group_delta = -node_gpu if on_gpu else node_gpu
            max_cpu_group = 0.0
            for g, value in cpu_groups.items():
                if g == group:
                    value += cpu_group_delta
                if value > max_cpu_group:
                    max_cpu_group = value
            if group not in cpu_groups and cpu_group_delta > max_cpu_group:
                max_cpu_group = cpu_group_delta
            max_gpu_group = 0.0
            for g, value in gpu_groups.items():
                if g == group:
                    value += gpu_group_delta
                if value > max_gpu_group:
                    max_gpu_group = value
            if group not in gpu_groups and gpu_group_delta > max_gpu_group:
                max_gpu_group = gpu_group_delta
            cpu_bottleneck = max(max_cpu_group,
                                 new_cpu_load / max(1, cpu_cores))
            gpu_bottleneck = max(max_gpu_group,
                                 new_gpu_load / max(1, gpu_units))
            return (max(cpu_bottleneck, gpu_bottleneck)
                    + CUT_PIPELINE_FACTOR * (cut + d_cut),
                    d_cut)

        for _step in range(len(movable_nodes)):
            best_move = None
            best_move_objective = None
            best_d_cut = 0.0
            for node in movable_nodes:
                if node in locked:
                    continue
                objective, d_cut = _objective_after(node)
                if (best_move_objective is None
                        or objective < best_move_objective):
                    best_move = node
                    best_move_objective = objective
                    best_d_cut = d_cut
            if best_move is None:
                break
            locked.add(best_move)
            cut += best_d_cut
            node_cpu = graph.nodes[best_move].get("cpu_time", 0.0)
            node_gpu = graph.nodes[best_move].get("gpu_time", 0.0)
            group = _group_of(graph, best_move)
            if best_move in working:  # GPU -> CPU
                working.remove(best_move)
                cpu_load += node_cpu
                gpu_load -= node_gpu
                cpu_groups[group] = cpu_groups.get(group, 0.0) + node_cpu
                gpu_groups[group] = gpu_groups.get(group, 0.0) - node_gpu
            else:  # CPU -> GPU
                working.add(best_move)
                cpu_load -= node_cpu
                gpu_load += node_gpu
                cpu_groups[group] = cpu_groups.get(group, 0.0) - node_cpu
                gpu_groups[group] = gpu_groups.get(group, 0.0) + node_gpu
            trail.append((best_move, best_move_objective))
        # Keep the best prefix of the pass.
        best_prefix_index = None
        best_prefix_objective = current
        for index, (_node, objective) in enumerate(trail):
            if objective < best_prefix_objective:
                best_prefix_objective = objective
                best_prefix_index = index
        if best_prefix_index is None:
            break  # pass produced no improvement: converged
        for node, _objective in trail[: best_prefix_index + 1]:
            if node in gpu_nodes:
                gpu_nodes.remove(node)
            else:
                gpu_nodes.add(node)
        applied_moves += best_prefix_index + 1
        best_objective = best_prefix_objective

    trace.count("partition.kl.passes", passes)
    trace.count("partition.kl.moves", applied_moves)
    objective, cut, cpu_load, gpu_load = evaluate(graph, gpu_nodes,
                                                  cpu_cores, gpu_units)
    all_nodes = set(graph.nodes)
    return PartitionResult(
        cpu_nodes=all_nodes - gpu_nodes,
        gpu_nodes=gpu_nodes,
        objective=objective,
        cut_weight=cut,
        cpu_load=cpu_load,
        gpu_load=gpu_load,
        algorithm="kernighan-lin",
        passes=passes,
    )


class _UnionFind:
    def __init__(self, nodes):
        self.parent = {n: n for n in nodes}

    def find(self, node):
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
        return rb


def agglomerative_partition(graph: nx.Graph, cpu_cores: int = 1,
                            seed_cpu: Optional[str] = None,
                            seed_gpu: Optional[str] = None,
                            gpu_units: int = 1,
                            trace=None) -> PartitionResult:
    """Seed-based agglomerative clustering (the lightweight scheme).

    Heaviest edges are contracted first (cutting them would be the most
    expensive), except edges that would fuse the CPU seed's cluster
    with the GPU seed's cluster.  Clusters ending up attached to
    neither seed are assigned greedily by objective.
    """
    trace = resolve_trace(trace)
    nodes = list(graph.nodes)
    if not nodes:
        return PartitionResult(set(), set(), 0.0, 0.0, 0.0, 0.0,
                               algorithm="agglomerative")
    pinned = [n for n in nodes if not _movable(graph, n)]
    movable_nodes = [n for n in nodes if _movable(graph, n)]
    if seed_cpu is None:
        seed_cpu = pinned[0] if pinned else nodes[0]
    if seed_gpu is None:
        # The documented default: a GPU-capable element as GPU seed;
        # prefer the one with the best GPU/CPU time ratio.
        if movable_nodes:
            seed_gpu = min(
                movable_nodes,
                key=lambda n: (graph.nodes[n].get("gpu_time", float("inf"))
                               / max(1e-12,
                                     graph.nodes[n].get("cpu_time", 1e-12))),
            )
        else:
            seed_gpu = None

    uf = _UnionFind(nodes)
    # Pinned nodes always belong with the CPU seed.
    for node in pinned:
        uf.union(node, seed_cpu)
    # The GPU seed's whole element moves as a unit: an element's
    # slices execute as one kernel stream, so splitting them between
    # the seeds would fragment the very offload the seed represents.
    if seed_gpu is not None:
        seed_group = _group_of(graph, seed_gpu)
        for node in movable_nodes:
            if _group_of(graph, node) == seed_group:
                uf.union(node, seed_gpu)

    def cluster_sides():
        cpu_root = uf.find(seed_cpu)
        gpu_root = uf.find(seed_gpu) if seed_gpu is not None else None
        return cpu_root, gpu_root

    edges = sorted(graph.edges(data=True),
                   key=lambda e: e[2].get("weight", 0.0), reverse=True)
    merges = 0
    for u, v, _data in edges:
        if not (_movable(graph, u) and _movable(graph, v)):
            # Edges to pinned (CPU-only) elements mark the offload
            # boundary; contracting them would glue every offloadable
            # element to the I/O path.  Whether to cut them is the
            # greedy straggler decision below.
            continue
        cpu_root, gpu_root = cluster_sides()
        ru, rv = uf.find(u), uf.find(v)
        if ru == rv:
            continue
        roots = {ru, rv}
        if gpu_root is not None and cpu_root in roots and gpu_root in roots:
            continue  # never fuse the two seed clusters
        uf.union(u, v)
        merges += 1
    trace.count("partition.agglo.merges", merges)

    cpu_root, gpu_root = cluster_sides()
    gpu_nodes: Set[str] = set()
    stragglers: List[str] = []
    for node in nodes:
        root = uf.find(node)
        if gpu_root is not None and root == gpu_root:
            gpu_nodes.add(node)
        elif root == cpu_root:
            continue
        else:
            stragglers.append(node)
    for node in stragglers:
        if not _movable(graph, node):
            continue
        trace.count("partition.offload_steps_tried")
        with_gpu = evaluate(graph, gpu_nodes | {node},
                            cpu_cores, gpu_units)[0]
        without = evaluate(graph, gpu_nodes, cpu_cores, gpu_units)[0]
        if with_gpu < without:
            gpu_nodes.add(node)

    objective, cut, cpu_load, gpu_load = evaluate(graph, gpu_nodes,
                                                  cpu_cores, gpu_units)
    return PartitionResult(
        cpu_nodes=set(nodes) - gpu_nodes,
        gpu_nodes=gpu_nodes,
        objective=objective,
        cut_weight=cut,
        cpu_load=cpu_load,
        gpu_load=gpu_load,
        algorithm="agglomerative",
    )


# ----------------------------------------------------------------------
# Multiway (device-neutral) partitioning
# ----------------------------------------------------------------------
#
# Nodes of a multiway graph carry a ``group_times`` attribute (device
# group name -> per-batch service time on that group); nodes missing a
# group in the dict cannot run there (treated as +inf, never assigned).
# The legacy ``cpu_time``/``gpu_time`` attributes act as fallbacks for
# the host and ``"gpu"`` groups, so binary-attributed graphs work
# unchanged.  ``link_costs`` scales the edge weight per offload group
# (the per-unit-share transfer cost of that group's link, relative to
# the PCIe baseline the edge weights were computed for); a cut edge
# charges each non-host endpoint's link once.


def _group_time(graph: nx.Graph, node: str, group: str) -> float:
    data = graph.nodes[node]
    times = data.get("group_times")
    if times is not None:
        if group in times:
            return times[group]
        return 0.0 if group == HOST_GROUP else float("inf")
    if group == HOST_GROUP:
        return data.get("cpu_time", 0.0)
    if group == "gpu":
        return data.get("gpu_time", float("inf"))
    return float("inf")


def _edge_cut_cost(weight: float, group_u: str, group_v: str,
                   link_costs: Dict[str, float]) -> float:
    """Cut contribution of one edge: each non-host endpoint's link."""
    if group_u == group_v:
        return 0.0
    cost = 0.0
    if group_u != HOST_GROUP:
        cost += weight * link_costs.get(group_u, 1.0)
    if group_v != HOST_GROUP:
        cost += weight * link_costs.get(group_v, 1.0)
    return cost


def evaluate_assignment(graph: nx.Graph,
                        assignment: Dict[str, Set[str]],
                        capacities: Optional[Dict[str, int]] = None,
                        link_costs: Optional[Dict[str, float]] = None,
                        ) -> Tuple[float, float, Dict[str, float]]:
    """Return (objective, cut, per-group load) for a full assignment.

    The objective generalizes :func:`evaluate`: ``max`` over device
    groups of each group's bottleneck (heaviest element cluster vs.
    load / capacity) plus ``CUT_PIPELINE_FACTOR`` times the cut.  For
    the two-group ``{"cpu", "gpu"}`` case it computes exactly the
    binary objective.
    """
    capacities = capacities or {}
    link_costs = link_costs or {}
    node_group: Dict[str, str] = {}
    for group, nodes in assignment.items():
        for node in nodes:
            node_group[node] = group
    loads: Dict[str, float] = {g: 0.0 for g in assignment}
    clusters: Dict[str, Dict[str, float]] = {g: {} for g in assignment}
    for node, data in graph.nodes(data=True):
        group = node_group[node]
        seconds = _group_time(graph, node, group)
        loads[group] += seconds
        element_group = data.get("group", node)
        bucket = clusters[group]
        bucket[element_group] = bucket.get(element_group, 0.0) + seconds
    cut = 0.0
    for u, v, data in graph.edges(data=True):
        cut += _edge_cut_cost(data.get("weight", 0.0),
                              node_group[u], node_group[v], link_costs)
    bottleneck = 0.0
    for group in assignment:
        heaviest = max(clusters[group].values(), default=0.0)
        fair = loads[group] / max(1, capacities.get(group, 1))
        bottleneck = max(bottleneck, heaviest, fair)
    return bottleneck + CUT_PIPELINE_FACTOR * cut, cut, loads


def _binary_groups(groups: Sequence[str]) -> bool:
    return set(groups) == {HOST_GROUP, "gpu"}


def _wrap_binary(result: PartitionResult) -> PartitionResult:
    """Attach the two-group view to a binary result."""
    result.groups = {HOST_GROUP: result.cpu_nodes,
                     "gpu": result.gpu_nodes}
    result.group_load = {HOST_GROUP: result.cpu_load,
                         "gpu": result.gpu_load}
    return result


def _multiway_result(graph: nx.Graph,
                     assignment: Dict[str, Set[str]],
                     capacities: Dict[str, int],
                     link_costs: Dict[str, float],
                     algorithm: str, passes: int = 0) -> PartitionResult:
    objective, cut, loads = evaluate_assignment(graph, assignment,
                                                capacities, link_costs)
    offloaded = set()
    for group, nodes in assignment.items():
        if group != HOST_GROUP:
            offloaded |= nodes
    return PartitionResult(
        cpu_nodes=set(assignment.get(HOST_GROUP, set())),
        gpu_nodes=offloaded,
        objective=objective,
        cut_weight=cut,
        cpu_load=loads.get(HOST_GROUP, 0.0),
        gpu_load=sum(load for group, load in loads.items()
                     if group != HOST_GROUP),
        algorithm=algorithm,
        passes=passes,
        groups={group: set(nodes) for group, nodes in assignment.items()},
        group_load=loads,
    )


def _offload_affinity(graph: nx.Graph, node: str,
                      offload_groups: Sequence[str]) -> float:
    """Best time-ratio over offload groups (lower offloads earlier)."""
    host = max(1e-12, _group_time(graph, node, HOST_GROUP))
    return min((_group_time(graph, node, group) / host
                for group in offload_groups), default=float("inf"))


def multiway_kl_partition(graph: nx.Graph, groups: Sequence[str],
                          capacities: Optional[Dict[str, int]] = None,
                          max_passes: int = 8,
                          link_costs: Optional[Dict[str, float]] = None,
                          trace=None) -> PartitionResult:
    """KL/FM refinement over an arbitrary set of device groups.

    ``groups`` lists the device groups (must include ``"cpu"``);
    ``capacities`` maps each group to its parallel-unit count (CPU
    cores, GPU boards, ...).  With exactly ``{"cpu", "gpu"}`` this
    delegates to :func:`kernighan_lin_partition`, so binary results
    are identical to the specialized implementation.
    """
    capacities = dict(capacities or {})
    link_costs = dict(link_costs or {})
    groups = list(dict.fromkeys(groups))
    if HOST_GROUP not in groups:
        groups.insert(0, HOST_GROUP)
    if _binary_groups(groups):
        return _wrap_binary(kernighan_lin_partition(
            graph,
            cpu_cores=capacities.get(HOST_GROUP, 1),
            max_passes=max_passes,
            gpu_units=capacities.get("gpu", 1),
            trace=trace,
        ))
    trace = resolve_trace(trace)
    offload_groups = [g for g in groups if g != HOST_GROUP]

    # Greedy initial assignment: everything on the host, then offer
    # each movable node to its cheapest-relative offload group.
    assignment: Dict[str, Set[str]] = {g: set() for g in groups}
    assignment[HOST_GROUP] = set(graph.nodes)
    candidates = [n for n in graph.nodes if _movable(graph, n)]
    candidates.sort(key=lambda n: _offload_affinity(graph, n,
                                                    offload_groups))
    best = evaluate_assignment(graph, assignment, capacities,
                               link_costs)[0]
    trace.count("partition.offload_steps_tried", len(candidates))
    for node in candidates:
        for target in offload_groups:
            if _group_time(graph, node, target) == float("inf"):
                continue
            assignment[HOST_GROUP].discard(node)
            assignment[target].add(node)
            objective = evaluate_assignment(graph, assignment,
                                            capacities, link_costs)[0]
            if objective < best:
                best = objective
                break
            assignment[target].discard(node)
            assignment[HOST_GROUP].add(node)

    node_group: Dict[str, str] = {}
    for group, nodes in assignment.items():
        for node in nodes:
            node_group[node] = group
    movable_nodes = [n for n in graph.nodes if _movable(graph, n)]
    best_objective = best

    applied_moves = 0
    passes = 0
    for _pass in range(max_passes):
        passes += 1
        locked: Set[str] = set()
        working = dict(node_group)
        # Incremental state, generalized from the binary pass: per-
        # group loads, per-(group, element-cluster) sums, and the cut.
        _obj, cut, loads = evaluate_assignment(
            graph, {g: {n for n, gg in working.items() if gg == g}
                    for g in groups},
            capacities, link_costs)
        clusters: Dict[str, Dict[str, float]] = {g: {} for g in groups}
        for node, data in graph.nodes(data=True):
            group = working[node]
            element_group = data.get("group", node)
            seconds = _group_time(graph, node, group)
            bucket = clusters[group]
            bucket[element_group] = bucket.get(element_group, 0.0) \
                + seconds

        def _objective_after(node: str,
                             target: str) -> Tuple[float, float]:
            """(objective, d_cut) if ``node`` moved to ``target``."""
            current = working[node]
            d_cut = 0.0
            for neighbor, data in graph[node].items():
                weight = data.get("weight", 0.0)
                neighbor_group = working[neighbor]
                d_cut -= _edge_cut_cost(weight, current,
                                        neighbor_group, link_costs)
                d_cut += _edge_cut_cost(weight, target,
                                        neighbor_group, link_costs)
            t_current = _group_time(graph, node, current)
            t_target = _group_time(graph, node, target)
            element_group = _group_of(graph, node)
            worst = 0.0
            for group in groups:
                load = loads[group]
                if group == current:
                    load -= t_current
                if group == target:
                    load += t_target
                heaviest = 0.0
                seen_element = False
                for egroup, value in clusters[group].items():
                    if egroup == element_group:
                        seen_element = True
                        if group == current:
                            value -= t_current
                        if group == target:
                            value += t_target
                    if value > heaviest:
                        heaviest = value
                if group == target and not seen_element \
                        and t_target > heaviest:
                    heaviest = t_target
                fair = load / max(1, capacities.get(group, 1))
                worst = max(worst, heaviest, fair)
            return (worst + CUT_PIPELINE_FACTOR * (cut + d_cut), d_cut)

        trail: List[Tuple[str, str, str, float]] = []
        for _step in range(len(movable_nodes)):
            best_move = None
            best_move_objective = None
            best_d_cut = 0.0
            for node in movable_nodes:
                if node in locked:
                    continue
                for target in groups:
                    if target == working[node]:
                        continue
                    if _group_time(graph, node, target) == float("inf"):
                        continue
                    objective, d_cut = _objective_after(node, target)
                    if (best_move_objective is None
                            or objective < best_move_objective):
                        best_move = (node, target)
                        best_move_objective = objective
                        best_d_cut = d_cut
            if best_move is None:
                break
            node, target = best_move
            locked.add(node)
            cut += best_d_cut
            current = working[node]
            t_current = _group_time(graph, node, current)
            t_target = _group_time(graph, node, target)
            element_group = _group_of(graph, node)
            loads[current] -= t_current
            loads[target] += t_target
            clusters[current][element_group] = (
                clusters[current].get(element_group, 0.0) - t_current)
            clusters[target][element_group] = (
                clusters[target].get(element_group, 0.0) + t_target)
            working[node] = target
            trail.append((node, current, target, best_move_objective))
        best_prefix_index = None
        best_prefix_objective = best_objective
        for index, (_node, _from, _to, objective) in enumerate(trail):
            if objective < best_prefix_objective:
                best_prefix_objective = objective
                best_prefix_index = index
        if best_prefix_index is None:
            break  # pass produced no improvement: converged
        for node, _from, target, _objective in \
                trail[: best_prefix_index + 1]:
            node_group[node] = target
        applied_moves += best_prefix_index + 1
        best_objective = best_prefix_objective

    trace.count("partition.kl.passes", passes)
    trace.count("partition.kl.moves", applied_moves)
    final = {g: {n for n, gg in node_group.items() if gg == g}
             for g in groups}
    return _multiway_result(graph, final, capacities, link_costs,
                            algorithm="kernighan-lin-multiway",
                            passes=passes)


def multiway_agglomerative_partition(
        graph: nx.Graph, groups: Sequence[str],
        capacities: Optional[Dict[str, int]] = None,
        link_costs: Optional[Dict[str, float]] = None,
        trace=None) -> PartitionResult:
    """Seed-based agglomerative clustering over device groups.

    One seed per offload group (the supporting movable node with the
    best time ratio against the host); heaviest edges are contracted
    first unless the contraction would fuse two seed clusters, and
    straggler clusters go to whichever group improves the objective
    most.  Delegates to :func:`agglomerative_partition` for the binary
    ``{"cpu", "gpu"}`` case.
    """
    capacities = dict(capacities or {})
    link_costs = dict(link_costs or {})
    groups = list(dict.fromkeys(groups))
    if HOST_GROUP not in groups:
        groups.insert(0, HOST_GROUP)
    if _binary_groups(groups):
        return _wrap_binary(agglomerative_partition(
            graph,
            cpu_cores=capacities.get(HOST_GROUP, 1),
            gpu_units=capacities.get("gpu", 1),
            trace=trace,
        ))
    trace = resolve_trace(trace)
    nodes = list(graph.nodes)
    if not nodes:
        return PartitionResult(set(), set(), 0.0, 0.0, 0.0, 0.0,
                               algorithm="agglomerative-multiway",
                               groups={g: set() for g in groups},
                               group_load={g: 0.0 for g in groups})
    offload_groups = [g for g in groups if g != HOST_GROUP]
    pinned = [n for n in nodes if not _movable(graph, n)]
    movable_nodes = [n for n in nodes if _movable(graph, n)]
    seed_host = pinned[0] if pinned else nodes[0]
    seeds: Dict[str, str] = {}
    for group in offload_groups:
        supporters = [
            n for n in movable_nodes
            if _group_time(graph, n, group) != float("inf")
            and n not in seeds.values() and n != seed_host
        ]
        if supporters:
            seeds[group] = min(
                supporters,
                key=lambda n: (_group_time(graph, n, group)
                               / max(1e-12,
                                     _group_time(graph, n, HOST_GROUP))),
            )

    uf = _UnionFind(nodes)
    for node in pinned:
        uf.union(node, seed_host)
    # Each seed's whole element moves as a unit (one kernel stream).
    for group, seed in seeds.items():
        seed_group = _group_of(graph, seed)
        for node in movable_nodes:
            if _group_of(graph, node) == seed_group \
                    and node not in seeds.values():
                uf.union(node, seed)

    def seed_roots() -> Dict[str, str]:
        roots = {HOST_GROUP: uf.find(seed_host)}
        for group, seed in seeds.items():
            roots[group] = uf.find(seed)
        return roots

    edges = sorted(graph.edges(data=True),
                   key=lambda e: e[2].get("weight", 0.0), reverse=True)
    merges = 0
    for u, v, _data in edges:
        if not (_movable(graph, u) and _movable(graph, v)):
            continue
        ru, rv = uf.find(u), uf.find(v)
        if ru == rv:
            continue
        anchored = {root for root in seed_roots().values()
                    if root in (ru, rv)}
        if len(anchored) > 1:
            continue  # never fuse two seed clusters
        uf.union(u, v)
        merges += 1
    trace.count("partition.agglo.merges", merges)

    roots = seed_roots()
    root_group = {root: group for group, root in roots.items()}
    assignment: Dict[str, Set[str]] = {g: set() for g in groups}
    stragglers: List[str] = []
    for node in nodes:
        group = root_group.get(uf.find(node))
        if group is not None:
            assignment[group].add(node)
        else:
            stragglers.append(node)
    # Stragglers start on the host, as unassigned nodes do on the
    # binary path, so every evaluation below sees a total assignment.
    assignment[HOST_GROUP].update(stragglers)
    for node in stragglers:
        if not _movable(graph, node):
            continue
        trace.count("partition.offload_steps_tried")
        assignment[HOST_GROUP].discard(node)
        best_group = HOST_GROUP
        best_objective = None
        for group in groups:
            if _group_time(graph, node, group) == float("inf"):
                continue
            assignment[group].add(node)
            objective = evaluate_assignment(graph, assignment,
                                            capacities, link_costs)[0]
            assignment[group].discard(node)
            if best_objective is None or objective < best_objective:
                best_objective = objective
                best_group = group
        assignment[best_group].add(node)

    return _multiway_result(graph, assignment, capacities, link_costs,
                            algorithm="agglomerative-multiway")
