"""Brute-force partition oracle and PartitionResult invariant checks.

On small expanded graphs the optimal CPU/GPU assignment can be found
by enumerating every subset of the movable nodes.  The oracle uses
that ground truth to assert that :func:`kernighan_lin_partition` and
:func:`agglomerative_partition`, run on the two device groups ``cpu``
and ``gpu``, stay within a bounded factor of the optimum, and that
every :class:`PartitionResult` satisfies its internal invariants
(disjoint node sets covering the graph, objective equal to the
recomputed objective, consistent cut weight and loads, pinned nodes on
the CPU side).  It recomputes everything with the independent
two-group evaluator :func:`~repro.core.partition.evaluate`, which the
partitioners themselves never call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

import networkx as nx

from repro.core.partition import (
    HOST_GROUP,
    PartitionResult,
    _cut_weight,
    _loads,
    _movable,
    agglomerative_partition,
    evaluate,
    kernighan_lin_partition,
)

#: Enumerating 2^n assignments: refuse beyond this many movable nodes.
MAX_BRUTE_FORCE_NODES = 16

_REL_TOL = 1e-9
_ABS_TOL = 1e-12


class OracleError(ValueError):
    """Raised when the brute-force oracle cannot run on a graph."""


def brute_force_partition(graph: nx.Graph, cpu_cores: int = 1,
                          gpu_units: int = 1) -> Tuple[Set[str], float]:
    """The provably optimal (gpu_nodes, objective) by enumeration."""
    movable = sorted(n for n in graph.nodes if _movable(graph, n))
    if len(movable) > MAX_BRUTE_FORCE_NODES:
        raise OracleError(
            f"{len(movable)} movable nodes exceed the brute-force limit "
            f"of {MAX_BRUTE_FORCE_NODES}"
        )
    best_gpu: Set[str] = set()
    best_objective = evaluate(graph, set(), cpu_cores, gpu_units)[0]
    for mask in range(1, 1 << len(movable)):
        gpu_nodes = {movable[i] for i in range(len(movable))
                     if mask & (1 << i)}
        objective = evaluate(graph, gpu_nodes, cpu_cores, gpu_units)[0]
        if objective < best_objective:
            best_objective = objective
            best_gpu = gpu_nodes
    return best_gpu, best_objective


def _close(a: float, b: float) -> bool:
    if a == b:  # covers inf == inf
        return True
    return abs(a - b) <= max(_ABS_TOL, _REL_TOL * max(abs(a), abs(b)))


def check_partition_result(graph: nx.Graph, result: PartitionResult,
                           cpu_cores: int = 1,
                           gpu_units: int = 1) -> List[str]:
    """Internal-consistency violations of one PartitionResult.

    Returns a list of human-readable problems (empty = invariants hold).
    """
    problems: List[str] = []
    all_nodes = set(graph.nodes)
    overlap = result.cpu_nodes & result.gpu_nodes
    if overlap:
        problems.append(f"cpu/gpu node sets overlap: {sorted(overlap)}")
    union = result.cpu_nodes | result.gpu_nodes
    if union != all_nodes:
        missing = sorted(all_nodes - union)
        extra = sorted(union - all_nodes)
        problems.append(
            f"node sets do not cover the graph (missing {missing}, "
            f"extra {extra})"
        )
    pinned_on_gpu = sorted(n for n in result.gpu_nodes
                           if n in graph and not _movable(graph, n))
    if pinned_on_gpu:
        problems.append(f"pinned nodes placed on GPU: {pinned_on_gpu}")

    objective, cut, cpu_load, gpu_load = evaluate(
        graph, result.gpu_nodes, cpu_cores, gpu_units
    )
    if not _close(result.objective, objective):
        problems.append(
            f"objective {result.objective} != recomputed {objective}"
        )
    if not _close(result.cut_weight, cut):
        problems.append(
            f"cut weight {result.cut_weight} != recomputed {cut}"
        )
    recomputed_cut = _cut_weight(graph, result.gpu_nodes)
    if not _close(cut, recomputed_cut):
        problems.append(
            f"cut weight inconsistent: {cut} vs {recomputed_cut}"
        )
    expect_cpu, expect_gpu = _loads(graph, result.cpu_nodes,
                                    result.gpu_nodes)
    if not _close(result.cpu_load, expect_cpu):
        problems.append(
            f"cpu load {result.cpu_load} != recomputed {expect_cpu}"
        )
    if not _close(result.gpu_load, expect_gpu):
        problems.append(
            f"gpu load {result.gpu_load} != recomputed {expect_gpu}"
        )
    return problems


@dataclass
class PartitionAudit:
    """Outcome of auditing both partition algorithms on one graph."""

    node_count: int
    optimal_objective: float
    results: List[PartitionResult] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        verdict = "OK" if self.ok else "VIOLATION"
        ratios = ", ".join(
            f"{r.algorithm}={self._ratio(r):.3f}x" for r in self.results
        )
        lines = [f"partition oracle[{self.node_count} nodes]: {verdict} "
                 f"(optimal {self.optimal_objective * 1e6:.2f} us; "
                 f"{ratios})"]
        lines.extend("  " + p for p in self.problems)
        return "\n".join(lines)

    def _ratio(self, result: PartitionResult) -> float:
        if self.optimal_objective <= 0:
            return 1.0
        return result.objective / self.optimal_objective


#: Allowed objective ratio over the brute-force optimum, per
#: algorithm.  KL is a refinement scheme and lands close to optimal on
#: small graphs; the lightweight agglomerative scheme *forces* a GPU
#: seed cluster onto the GPU even when offloading never pays (see the
#: ``cpu_friendly`` unit fixture), so its bound must absorb that.
DEFAULT_BOUND_FACTORS = {
    "kernighan-lin": 1.5,
    "agglomerative": 8.0,
}


def audit_partitioners(graph: nx.Graph, cpu_cores: int = 1,
                       gpu_units: int = 1,
                       bound_factors: Optional[dict] = None,
                       optimal: Optional[Tuple[Set[str], float]] = None
                       ) -> PartitionAudit:
    """Run both algorithms; check invariants and boundedness.

    ``bound_factors`` maps algorithm name to the allowed ratio over the
    brute-force optimum.  KL additionally must never be worse than the
    trivial all-CPU assignment (its construction guarantees it: the
    greedy seed only adds improving nodes and each pass keeps only
    improving prefixes); the agglomerative scheme gives no such
    guarantee because its GPU seed cluster is unconditional.
    """
    factors = dict(DEFAULT_BOUND_FACTORS)
    factors.update(bound_factors or {})
    if optimal is None:
        optimal = brute_force_partition(graph, cpu_cores, gpu_units)
    _optimal_gpu, optimal_objective = optimal
    all_cpu_objective = evaluate(graph, set(), cpu_cores, gpu_units)[0]

    audit = PartitionAudit(node_count=graph.number_of_nodes(),
                           optimal_objective=optimal_objective)
    capacities = {HOST_GROUP: cpu_cores, "gpu": gpu_units}
    for algorithm in (kernighan_lin_partition, agglomerative_partition):
        result = algorithm(graph, capacities)
        audit.results.append(result)
        for problem in check_partition_result(graph, result,
                                              cpu_cores, gpu_units):
            audit.problems.append(f"{result.algorithm}: {problem}")
        if result.objective < optimal_objective - _ABS_TOL \
                and not _close(result.objective, optimal_objective):
            audit.problems.append(
                f"{result.algorithm}: objective {result.objective} beats "
                f"the brute-force optimum {optimal_objective} — the "
                "oracle or the evaluation is broken"
            )
        bound_factor = factors.get(result.algorithm)
        if bound_factor is not None and optimal_objective > 0 and \
                result.objective > optimal_objective * bound_factor \
                and not _close(result.objective,
                               optimal_objective * bound_factor):
            audit.problems.append(
                f"{result.algorithm}: objective {result.objective} is "
                f"{result.objective / optimal_objective:.2f}x the "
                f"optimum {optimal_objective} (bound {bound_factor}x)"
            )
        if result.algorithm == "kernighan-lin" \
                and result.objective > all_cpu_objective + _ABS_TOL \
                and not _close(result.objective, all_cpu_objective):
            audit.problems.append(
                f"{result.algorithm}: objective {result.objective} is "
                f"worse than the all-CPU assignment {all_cpu_objective}"
            )
    return audit
