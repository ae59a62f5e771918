"""Graph partitioning algorithms (Section IV.C.3).

Two algorithms split the expanded, weighted element graph across
device *groups*: the host group ``"cpu"`` and one group per offload
device kind (``"gpu"`` on the paper's platform, plus data-registered
kinds such as ``"smartnic"``).  With no healthy offload device the
host group is the only group and every node lands on it.

- :func:`kernighan_lin_partition` — a modified Kernighan–Lin/FM
  refinement: starting from a greedy initial assignment, passes of
  locked single-node moves are applied, keeping the best prefix of
  each pass, until no pass improves the objective.  A step prices one
  member of each class of interchangeable nodes (an element's
  δ-slices) per group, since its twins price alike and cannot win a
  strict comparison after it.
- :func:`agglomerative_partition` — the paper's lightweight
  O(k log k) seed-based clustering: pick a host seed and one seed per
  offload group, sort edges by communication weight, and merge
  clusters over the heaviest edges first so expensive edges are never
  cut; leftover clusters go to whichever group improves the objective
  most.

The objective models the per-batch pipeline bottleneck, a max over
device groups:

    max over groups g of max(heaviest element on g, load_g / units_g)
      + CUT_PIPELINE_FACTOR * cut_transfer_cost

where ``load_g`` is the summed service time of the nodes on ``g`` and
the cut cost is the link transfer time of edges crossing a group
boundary (transfers run on dedicated DMA engines, so they form their
own pipeline stage) — "maximize resource utilization and throughput
while minimizing communication costs".  For the paper's two groups it
reads ``max(heaviest CPU element, cpu_load / cores, heaviest GPU
element, gpu_load / gpus) + CUT_PIPELINE_FACTOR * cut``, which
:func:`evaluate` computes independently.

Graph schema: a :class:`PartitionGraph` (or an ``nx.Graph``) whose
nodes carry ``group_times`` (device group -> per-batch service time; a
group missing from the dict cannot run the node, read as +inf),
``pinned="cpu"`` for host-only nodes, and ``group`` (the original
element a slice belongs to).  The ``cpu_time``/``gpu_time``
attributes stand in for ``group_times`` on graphs without it.  Edges
carry ``weight``; ``link_costs`` scales it per offload group, and a cut
edge charges each non-host endpoint's link once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.obs import resolve_trace

#: How much of the PCIe cut contributes to the per-batch makespan.
#: 0 would mean transfers overlap perfectly with compute; 1 would mean
#: they serialize; the engine's duplex DMA pipelining sits in between.
CUT_PIPELINE_FACTOR = 0.5

#: The device group holding the CPU cores (never charged link costs).
HOST_GROUP = "cpu"

#: Kernighan–Lin refinement passes before giving up on convergence.
MAX_PASSES = 8

#: Relative slack of KL's greedy-start filter: a trial is skipped only
#: when its incremental objective ``a`` exceeds the best from-scratch
#: objective ``b`` by more than ``_GREEDY_SLACK * (|a| + |b|)``.  Both
#: are maxima of sums of the same non-negative times and weights (the
#: incremental one also takes the moved node's own terms out again),
#: each sum at most nodes + edges terms long and, once its group's
#: units divide it or the cut factor halves it, at most the objective
#: it enters.  Each addition rounds by at most 2**-53 of its result,
#: so ``a`` and the trial's exact ``evaluate`` differ by less than
#: (nodes + edges) * 2**-52 * (|a| + |b|): about 2**-44 on a 5-NF
#: deploy's 212 nodes and edges, and 2**-30 only past four million.
#: The bound only filters; ``_Tables.evaluate`` decides every trial
#: it keeps, so every accept and reject is the from-scratch one.
_GREEDY_SLACK = 2.0 ** -30


class _Nodes(dict):
    """Node id -> attribute dict; ``nodes(data=True)`` yields pairs."""

    def __call__(self, data: bool = False):
        return self.items() if data else self.keys()


class PartitionGraph:
    """An undirected weighted graph: the ``nx.Graph`` subset that
    partitioning reads.

    ``nodes`` iterates node ids, ``nodes[n]`` is a node's attribute
    dict and ``nodes(data=True)`` yields ``(node, attrs)``; ``g[n]``
    maps each neighbour to the edge's attribute dict; ``graph`` holds
    graph attributes.  The iteration orders are ``nx.Graph``'s: nodes
    and every node's neighbours in insertion order, and
    :meth:`edges` yields each edge once, from its endpoint added
    first.  Both directions of an edge share one attribute dict.  So
    the partitioners sum over either graph in the same order, and
    their duck-typed entry points take an ``nx.Graph`` as well.
    """

    def __init__(self) -> None:
        self.graph: Dict[str, object] = {}
        self.nodes = _Nodes()
        self._adj: Dict[str, Dict[str, dict]] = {}

    def add_node(self, node: str, **attrs) -> None:
        if node in self.nodes:
            self.nodes[node].update(attrs)
        else:
            self.nodes[node] = attrs
            self._adj[node] = {}

    def add_edge(self, u: str, v: str, **attrs) -> None:
        for node in (u, v):
            if node not in self.nodes:
                self.add_node(node)
        data = self._adj[u].get(v, {})
        data.update(attrs)
        self._adj[u][v] = data
        self._adj[v][u] = data

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, ())

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    def __getitem__(self, node: str) -> Dict[str, dict]:
        return self._adj[node]

    def edges(self, data: bool = False) -> Iterator[tuple]:
        seen: Set[str] = set()
        for node, neighbours in self._adj.items():
            for neighbour, attrs in neighbours.items():
                if neighbour not in seen:
                    yield (node, neighbour, attrs) if data \
                        else (node, neighbour)
            seen.add(node)


@dataclass
class PartitionResult:
    """Outcome of one partitioning run.

    ``groups`` maps every device group to its node set and
    ``group_load`` to its summed service time.  ``cpu_nodes`` /
    ``gpu_nodes`` and ``cpu_load`` / ``gpu_load`` are the two-group
    view: the host group against every offload group together.
    """

    cpu_nodes: Set[str]
    gpu_nodes: Set[str]
    objective: float
    cut_weight: float
    cpu_load: float
    gpu_load: float
    algorithm: str
    #: Device group name -> node set, host group first.
    groups: Dict[str, Set[str]]
    #: Device group name -> summed service time of its nodes.
    group_load: Dict[str, float]
    passes: int = 0

    def device_groups(self) -> Dict[str, Set[str]]:
        """Device group name -> node set, host group first."""
        return self.groups

    def group_of(self, node: str) -> str:
        """The device group a node was assigned to.

        Unknown nodes raise a ``KeyError`` naming the node and the
        known groups.
        """
        for group, nodes in self.groups.items():
            if node in nodes:
                return group
        raise KeyError(
            f"node {node!r} is not in any partition group; "
            f"known groups: "
            f"{ {g: len(n) for g, n in self.groups.items()} }"
        )


# ----------------------------------------------------------------------
# The two-group evaluator
# ----------------------------------------------------------------------
#
# ``evaluate`` and its helpers read only ``cpu_time``/``gpu_time`` and
# sum in their own order.  The partitioners never call them: they are
# the brute-force oracle's (:mod:`repro.validate.partition_oracle`)
# independent check of the two-group objective.


def _loads(graph: PartitionGraph, cpu_nodes: Set[str],
           gpu_nodes: Set[str]) -> Tuple[float, float]:
    cpu_load = sum(graph.nodes[n].get("cpu_time", 0.0) for n in cpu_nodes)
    gpu_load = sum(graph.nodes[n].get("gpu_time", 0.0) for n in gpu_nodes)
    return cpu_load, gpu_load


def _cut_weight(graph: PartitionGraph, gpu_nodes: Set[str]) -> float:
    cut = 0.0
    for u, v, data in graph.edges(data=True):
        if (u in gpu_nodes) != (v in gpu_nodes):
            cut += data.get("weight", 0.0)
    return cut


def _group_loads(graph: PartitionGraph, gpu_nodes: Set[str]
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


def evaluate(graph: PartitionGraph, gpu_nodes: Set[str],
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


def _movable(graph: PartitionGraph, node: str) -> bool:
    return graph.nodes[node].get("pinned") != "cpu"


# ----------------------------------------------------------------------
# Device-group partitioning
# ----------------------------------------------------------------------


def _group_time(graph: PartitionGraph, node: str, group: str) -> float:
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


def evaluate_assignment(graph: PartitionGraph,
                        assignment: Dict[str, Set[str]],
                        capacities: Optional[Dict[str, int]] = None,
                        link_costs: Optional[Dict[str, float]] = None,
                        ) -> Tuple[float, float, Dict[str, float]]:
    """Return (objective, cut, per-group load) for a full assignment.

    ``max`` over device groups of each group's bottleneck (heaviest
    element cluster vs. load / capacity) plus ``CUT_PIPELINE_FACTOR``
    times the cut; for the two-group ``{"cpu", "gpu"}`` case it is the
    objective of :func:`evaluate`.
    """
    capacities = capacities or {}
    tables = _Tables(graph, {g: capacities.get(g, 1) for g in assignment},
                     link_costs)
    node_group = {node: group for group, nodes in assignment.items()
                  for node in nodes}
    return tables.evaluate(node_group)


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


class _Incremental:
    """Per-group loads, per-(group, element) sums, each group's top two
    element sums and the cut of the full assignment ``working``,
    tallied from scratch; prices and makes single-node moves in
    O(degree + groups).  :meth:`move` updates ``working`` itself."""

    def __init__(self, tables: _Tables, assignment: Dict[str, str]):
        self.tables = tables
        self.working = assignment
        self.loads, self.clusters, self.cut = tables.tally(assignment)
        self.tops = {group: _top_two(self.clusters[group])
                     for group in tables.groups}

    def objective_after(self, node: str,
                        target: str) -> Tuple[float, float]:
        """(objective, d_cut) if ``node`` moved to ``target``.

        Only the node's element changes its sum in the two groups
        involved, and the heaviest of the other elements there is the
        group's first or second sum.
        """
        tables = self.tables
        working = self.working
        link = tables.link
        current = working[node]
        d_cut = 0.0
        for neighbour, weight in tables.neighbours[node]:
            other = working[neighbour]
            if other != current:
                d_cut -= weight * link[current] + weight * link[other]
            if other != target:
                d_cut += weight * link[target] + weight * link[other]
        node_times = tables.times[node]
        t_current = node_times[current]
        t_target = node_times[target]
        element = tables.element[node]
        loads = self.loads
        clusters = self.clusters
        tops = self.tops
        units = tables.units
        worst = 0.0
        for group in tables.groups:
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
        return (worst + CUT_PIPELINE_FACTOR * (self.cut + d_cut), d_cut)

    def move(self, node: str, target: str, d_cut: float) -> None:
        """Move ``node`` to ``target``; ``d_cut`` as priced."""
        current = self.working[node]
        node_times = self.tables.times[node]
        t_current = node_times[current]
        t_target = node_times[target]
        element = self.tables.element[node]
        loads, clusters, tops = self.loads, self.clusters, self.tops
        self.cut += d_cut
        loads[current] -= t_current
        loads[target] += t_target
        clusters[current][element] = (
            clusters[current].get(element, 0.0) - t_current)
        clusters[target][element] = (
            clusters[target].get(element, 0.0) + t_target)
        tops[current] = _top_two(clusters[current])
        tops[target] = _top_two(clusters[target])
        self.working[node] = target


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
    movable = tables.movable
    times = tables.times
    inf = float("inf")

    # Greedy initial assignment: everything on the host, then offer
    # each movable node to its cheapest-relative offload group.  The
    # incremental objective only filters the trials; ``evaluate``
    # judges every trial the filter keeps, and the state is tallied
    # afresh after each accepted move.
    node_group = {node: HOST_GROUP for node in tables.nodes}
    state = _Incremental(tables, node_group)

    def affinity(node: str) -> float:
        """Best time ratio over offload groups (lower offloads first)."""
        host = max(1e-12, times[node][HOST_GROUP])
        return min((times[node][g] / host for g in offload_groups),
                   default=inf)

    candidates = sorted(movable, key=affinity)
    best_objective = tables.evaluate(node_group)[0]
    trace.count("partition.offload_steps_tried", len(candidates))
    for node in candidates:
        for target in offload_groups:
            if times[node][target] == inf:
                continue
            bound = state.objective_after(node, target)[0]
            if bound - best_objective > _GREEDY_SLACK * (
                    abs(bound) + abs(best_objective)):
                continue
            node_group[node] = target
            objective = tables.evaluate(node_group)[0]
            if objective < best_objective:
                best_objective = objective
                state = _Incremental(tables, node_group)
                break
            node_group[node] = HOST_GROUP

    # A class of interchangeable nodes (an element's δ-slices):
    # the same element, times and neighbour list (ids and weights, in
    # order).  ``objective_after`` reads nothing else of a node but
    # its group, so two unlocked members of a class on one group price
    # every move alike, and the strict ``<`` of a step lets only the
    # first of them in ``movable`` order win.
    classes: Dict[tuple, int] = {}
    class_of = {
        node: classes.setdefault(
            (tables.element[node], tuple(times[node].items()),
             tuple(tables.neighbours[node])), len(classes))
        for node in movable}

    applied_moves = 0
    passes = 0
    for _pass in range(MAX_PASSES):
        passes += 1
        state = _Incremental(tables, dict(node_group))
        working = state.working
        # A node is not moved before it is locked, so the unlocked
        # members of each (class, group) lane stay in that lane all
        # pass; a step prices only each lane's first unlocked member.
        lane_of: Dict[str, List[str]] = {}
        lanes: Dict[Tuple[int, str], List[str]] = {}
        for node in movable:
            lane = lanes.setdefault((class_of[node], working[node]), [])
            lane.append(node)
            lane_of[node] = lane
        unlocked = list(movable)
        trail: List[Tuple[str, str, float]] = []
        while unlocked:
            best_move = None
            best_move_objective = None
            best_d_cut = 0.0
            for node in unlocked:
                if lane_of[node][0] != node:
                    continue  # priced as its lane's first member
                current = working[node]
                node_times = times[node]
                for target in groups:
                    if target == current or node_times[target] == inf:
                        continue
                    objective, d_cut = state.objective_after(node, target)
                    if (best_move_objective is None
                            or objective < best_move_objective):
                        best_move = (node, target)
                        best_move_objective = objective
                        best_d_cut = d_cut
            if best_move is None:
                break
            node, target = best_move
            unlocked.remove(node)
            lane_of[node].pop(0)
            state.move(node, target, best_d_cut)
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


def agglomerative_partition(graph: PartitionGraph,
                            capacities: Dict[str, int],
                            link_costs: Optional[Dict[str, float]] = None,
                            trace=None) -> PartitionResult:
    """Seed-based agglomerative clustering (the lightweight scheme).

    The host seed is the first pinned node (else the first node); each
    offload group's seed is the movable node it supports with the best
    time ratio against the host, never the host seed or another
    group's seed.  Heaviest edges are contracted first unless the
    contraction would fuse two seed clusters, and straggler clusters
    go to whichever group improves the objective most.  ``capacities``
    and ``link_costs`` are as for :func:`kernighan_lin_partition`.
    """
    trace = resolve_trace(trace)
    tables = _Tables(graph, capacities, link_costs)
    nodes = tables.nodes
    if not nodes:
        return tables.result({}, "agglomerative")
    times = tables.times
    element_of = tables.element
    inf = float("inf")
    movable = set(tables.movable)
    pinned = [n for n in nodes if n not in movable]
    seed_host = pinned[0] if pinned else nodes[0]
    seeds: Dict[str, str] = {}
    for group in tables.groups[1:]:
        supporters = [
            n for n in tables.movable
            if times[n][group] != inf
            and n not in seeds.values() and n != seed_host
        ]
        if supporters:
            seeds[group] = min(
                supporters,
                key=lambda n: (times[n][group]
                               / max(1e-12, times[n][HOST_GROUP])),
            )

    uf = _UnionFind(nodes)
    for node in pinned:
        uf.union(node, seed_host)
    # Each seed's whole element moves as a unit: an element's slices
    # execute as one kernel stream, so splitting them between seeds
    # would fragment the very offload the seed represents.
    for group, seed in seeds.items():
        seed_element = element_of[seed]
        for node in tables.movable:
            if element_of[node] == seed_element \
                    and node not in seeds.values():
                uf.union(node, seed)

    def seed_roots() -> Dict[str, str]:
        roots = {HOST_GROUP: uf.find(seed_host)}
        for group, seed in seeds.items():
            roots[group] = uf.find(seed)
        return roots

    edges = sorted(tables.edges, key=lambda e: e[2], reverse=True)
    merges = 0
    for u, v, _weight in edges:
        if u not in movable or v not in movable:
            # Edges to pinned (host-only) elements mark the offload
            # boundary; contracting them would glue every offloadable
            # element to the I/O path.  Whether to cut them is the
            # greedy straggler decision below.
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

    root_group = {root: group for group, root in seed_roots().items()}
    node_group: Dict[str, str] = {}
    stragglers: List[str] = []
    for node in nodes:
        group = root_group.get(uf.find(node))
        if group is None:
            # Stragglers wait on the host, so every evaluation below
            # sees a total assignment.
            stragglers.append(node)
            group = HOST_GROUP
        node_group[node] = group
    for node in stragglers:
        if node not in movable:
            continue
        trace.count("partition.offload_steps_tried")
        best_group = HOST_GROUP
        best_objective = None
        for group in tables.groups:
            if times[node][group] == inf:
                continue
            node_group[node] = group
            objective = tables.evaluate(node_group)[0]
            if best_objective is None or objective < best_objective:
                best_objective = objective
                best_group = group
        node_group[node] = best_group

    return tables.result(node_group, "agglomerative")
