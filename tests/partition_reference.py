"""Frozen Kernighan–Lin: the test oracle of the partitioner.

This is :func:`repro.core.partition.kernighan_lin_partition` as it was
before KL priced one member per class of interchangeable nodes and
filtered its greedy start's trials with an incremental bound: every
pass prices every unlocked node's every move, and the greedy start
judges every trial with a from-scratch evaluation.  ``_Tables`` and
``_top_two`` are copied with it, so the sums it makes are its own.

It lives under ``tests/`` because nothing in the product runs it; it
is the reference the product partitioner is checked against:

1. **Seeded corpus** — ``tests/core/test_partition_reference.py``
   captures the allocator's partition graphs from deploys of seeded
   catalog chains on four platforms (two groups, one GPU, host only,
   host + GPU + SmartNIC), plus hand-built graphs with interchangeable
   nodes apart in node order and in different groups, and requires the
   same groups, objective and cut bits, group loads, passes and moves.
2. **Property** — ``tests/properties/test_partition_reference_properties.py``
   draws random partition graphs with planted twin classes under one,
   two and three groups (``-m property``).

Its value is being frozen: do not "fix" or speed it up.  The graph
semantics it shares with the product (``_group_time``, ``_movable``,
``PartitionResult`` and the constants) are imported.  Product code
must not import this module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.partition import (
    CUT_PIPELINE_FACTOR,
    HOST_GROUP,
    MAX_PASSES,
    PartitionGraph,
    PartitionResult,
    _group_time,
    _movable,
)
from repro.obs import resolve_trace


class _Tables:
    """Everything a partitioning run reads, resolved once per call.

    The search loops look up plain dicts instead of going through the
    graph's attribute dicts and :func:`_group_time` on every candidate
    move.  Iteration orders are the graph's (nodes, adjacency, edges),
    so every sum below is a pure function of the graph.
    """

    def __init__(self, graph: PartitionGraph,
                 capacities: Dict[str, int],
                 link_costs: Optional[Dict[str, float]]):
        self.groups: List[str] = [HOST_GROUP] + [
            g for g in capacities if g != HOST_GROUP]
        self.units = {g: max(1, capacities.get(g, 1))
                      for g in self.groups}
        # A cut edge charges weight x link factor per non-host
        # endpoint; the host's factor of 0.0 adds exactly nothing.
        link_costs = link_costs or {}
        self.link = {g: (0.0 if g == HOST_GROUP
                         else link_costs.get(g, 1.0))
                     for g in self.groups}
        self.nodes: List[str] = list(graph.nodes)
        self.movable = [n for n in self.nodes if _movable(graph, n)]
        self.times = {n: {g: _group_time(graph, n, g)
                          for g in self.groups}
                      for n in self.nodes}
        self.element = {n: data.get("group", n)
                        for n, data in graph.nodes(data=True)}
        self.neighbours = {
            n: [(m, data.get("weight", 0.0))
                for m, data in graph[n].items()]
            for n in self.nodes}
        self.edges = [(u, v, data.get("weight", 0.0))
                      for u, v, data in graph.edges(data=True)]

    def tally(self, node_group: Dict[str, str]) -> Tuple[
            Dict[str, float], Dict[str, Dict[str, float]], float]:
        """(per-group load, per-group element sums, cut) from scratch."""
        loads = {g: 0.0 for g in self.groups}
        clusters: Dict[str, Dict[str, float]] = {
            g: {} for g in self.groups}
        for node in self.nodes:
            group = node_group[node]
            seconds = self.times[node][group]
            loads[group] += seconds
            bucket = clusters[group]
            element = self.element[node]
            bucket[element] = bucket.get(element, 0.0) + seconds
        link = self.link
        cut = 0.0
        for u, v, weight in self.edges:
            group_u, group_v = node_group[u], node_group[v]
            if group_u != group_v:
                cut += weight * link[group_u] + weight * link[group_v]
        return loads, clusters, cut

    def evaluate(self, node_group: Dict[str, str]
                 ) -> Tuple[float, float, Dict[str, float]]:
        """(objective, cut, per-group load) of a full assignment."""
        loads, clusters, cut = self.tally(node_group)
        bottleneck = 0.0
        for group in self.groups:
            heaviest = max(clusters[group].values(), default=0.0)
            fair = loads[group] / self.units[group]
            bottleneck = max(bottleneck, heaviest, fair)
        return bottleneck + CUT_PIPELINE_FACTOR * cut, cut, loads

    def result(self, node_group: Dict[str, str], algorithm: str,
               passes: int = 0) -> PartitionResult:
        objective, cut, loads = self.evaluate(node_group)
        groups: Dict[str, Set[str]] = {g: set() for g in self.groups}
        for node in self.nodes:
            groups[node_group[node]].add(node)
        offloaded: Set[str] = set()
        for group in self.groups[1:]:
            offloaded |= groups[group]
        return PartitionResult(
            cpu_nodes=set(groups[HOST_GROUP]),
            gpu_nodes=offloaded,
            objective=objective,
            cut_weight=cut,
            cpu_load=loads[HOST_GROUP],
            gpu_load=sum((loads[g] for g in self.groups[1:]), 0.0),
            algorithm=algorithm,
            groups=groups,
            group_load=loads,
            passes=passes,
        )



def _top_two(sums: Dict[str, float]) -> Tuple[float, Optional[str], float]:
    """(largest sum, its element, second-largest sum), both at least 0.

    The objective's heaviest element on a group is never below 0.0, so
    the floor changes no maximum; ties keep the first element seen.
    """
    first, first_element, second = 0.0, None, 0.0
    for element, value in sums.items():
        if value > first:
            first, first_element, second = value, element, first
        elif value > second:
            second = value
    return first, first_element, second


def kernighan_lin_partition(graph: PartitionGraph,
                            capacities: Dict[str, int],
                            link_costs: Optional[Dict[str, float]] = None,
                            trace=None) -> PartitionResult:
    """KL/FM refinement over the device groups of ``capacities``.

    ``capacities`` maps each device group to its parallel-unit count
    (CPU cores, GPU boards, ...), host group first; ``link_costs``
    scales cut edges per offload group.
    """
    trace = resolve_trace(trace)
    tables = _Tables(graph, capacities, link_costs)
    groups = tables.groups
    offload_groups = groups[1:]
    times = tables.times
    element_of = tables.element
    neighbours = tables.neighbours
    link = tables.link
    units = tables.units
    inf = float("inf")

    # Greedy initial assignment: everything on the host, then offer
    # each movable node to its cheapest-relative offload group.
    node_group = {node: HOST_GROUP for node in tables.nodes}

    def affinity(node: str) -> float:
        """Best time ratio over offload groups (lower offloads first)."""
        host = max(1e-12, times[node][HOST_GROUP])
        return min((times[node][g] / host for g in offload_groups),
                   default=inf)

    candidates = sorted(tables.movable, key=affinity)
    best_objective = tables.evaluate(node_group)[0]
    trace.count("partition.offload_steps_tried", len(candidates))
    for node in candidates:
        for target in offload_groups:
            if times[node][target] == inf:
                continue
            node_group[node] = target
            objective = tables.evaluate(node_group)[0]
            if objective < best_objective:
                best_objective = objective
                break
            node_group[node] = HOST_GROUP

    applied_moves = 0
    passes = 0
    for _pass in range(MAX_PASSES):
        passes += 1
        locked: Set[str] = set()
        working = dict(node_group)
        # Incremental state: per-group loads, per-(group, element)
        # sums, each group's top two element sums, and the cut.
        loads, clusters, cut = tables.tally(working)
        tops = {group: _top_two(clusters[group]) for group in groups}

        def objective_after(node: str,
                            target: str) -> Tuple[float, float]:
            """(objective, d_cut) if ``node`` moved to ``target``.

            O(degree + groups): only the node's element changes its sum
            in the two groups involved, and the heaviest of the other
            elements there is the group's first or second sum.
            """
            current = working[node]
            d_cut = 0.0
            for neighbour, weight in neighbours[node]:
                other = working[neighbour]
                if other != current:
                    d_cut -= weight * link[current] + weight * link[other]
                if other != target:
                    d_cut += weight * link[target] + weight * link[other]
            t_current = times[node][current]
            t_target = times[node][target]
            element = element_of[node]
            worst = 0.0
            for group in groups:
                load = loads[group]
                first, first_element, second = tops[group]
                if group == current:
                    load -= t_current
                    value = clusters[group][element] - t_current
                elif group == target:
                    load += t_target
                    value = clusters[group].get(element)
                    value = t_target if value is None else value + t_target
                else:
                    worst = max(worst, first, load / units[group])
                    continue
                others = second if first_element == element else first
                heaviest = value if value > others else others
                fair = load / units[group]
                worst = max(worst, heaviest, fair)
            return (worst + CUT_PIPELINE_FACTOR * (cut + d_cut), d_cut)

        trail: List[Tuple[str, str, float]] = []
        for _step in range(len(tables.movable)):
            best_move = None
            best_move_objective = None
            best_d_cut = 0.0
            for node in tables.movable:
                if node in locked:
                    continue
                node_times = times[node]
                for target in groups:
                    if target == working[node] \
                            or node_times[target] == inf:
                        continue
                    objective, d_cut = objective_after(node, target)
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
            t_current = times[node][current]
            t_target = times[node][target]
            element = element_of[node]
            loads[current] -= t_current
            loads[target] += t_target
            clusters[current][element] = (
                clusters[current].get(element, 0.0) - t_current)
            clusters[target][element] = (
                clusters[target].get(element, 0.0) + t_target)
            tops[current] = _top_two(clusters[current])
            tops[target] = _top_two(clusters[target])
            working[node] = target
            trail.append((node, target, best_move_objective))
        # Keep the best prefix of the pass.
        best_prefix_index = None
        best_prefix_objective = best_objective
        for index, (_node, _target, objective) in enumerate(trail):
            if objective < best_prefix_objective:
                best_prefix_objective = objective
                best_prefix_index = index
        if best_prefix_index is None:
            break  # pass produced no improvement: converged
        for node, target, _objective in trail[: best_prefix_index + 1]:
            node_group[node] = target
        applied_moves += best_prefix_index + 1
        best_objective = best_prefix_objective

    trace.count("partition.kl.passes", passes)
    trace.count("partition.kl.moves", applied_moves)
    return tables.result(node_group, "kernighan-lin", passes=passes)

