"""Tier-1 tests for the brute-force partition oracle."""

import pytest
from builders import cpu_friendly_graph, offload_friendly_graph, \
    weighted_graph

from repro.core.partition import (
    HOST_GROUP,
    PartitionResult,
    evaluate,
    kernighan_lin_partition,
)
from repro.validate.partition_oracle import (
    MAX_BRUTE_FORCE_NODES,
    OracleError,
    audit_partitioners,
    brute_force_partition,
    check_partition_result,
)

#: One CPU core and one GPU: the paper's two device groups.
TWO_GROUPS = {HOST_GROUP: 1, "gpu": 1}


class TestBruteForce:
    def test_offload_friendly_optimum_offloads(self):
        gpu_nodes, objective = brute_force_partition(
            offload_friendly_graph()
        )
        assert gpu_nodes == {"heavy"}
        expected = evaluate(offload_friendly_graph(), {"heavy"})[0]
        assert objective == pytest.approx(expected)

    def test_cpu_friendly_optimum_stays_on_cpu(self):
        gpu_nodes, objective = brute_force_partition(cpu_friendly_graph())
        assert gpu_nodes == set()
        assert objective == pytest.approx(4.0)

    def test_pinned_nodes_never_enumerated(self):
        gpu_nodes, _objective = brute_force_partition(
            offload_friendly_graph()
        )
        assert "rx" not in gpu_nodes and "tx" not in gpu_nodes

    def test_too_large_graph_rejected(self):
        nodes = {f"n{i}": (1.0, 0.5, None)
                 for i in range(MAX_BRUTE_FORCE_NODES + 1)}
        graph = weighted_graph(nodes, [])
        with pytest.raises(OracleError, match="brute-force limit"):
            brute_force_partition(graph)


class TestCheckPartitionResult:
    def test_real_result_passes(self):
        graph = offload_friendly_graph()
        result = kernighan_lin_partition(graph, TWO_GROUPS)
        assert check_partition_result(graph, result, cpu_cores=1) == []

    def test_corrupted_objective_caught(self):
        graph = offload_friendly_graph()
        result = kernighan_lin_partition(graph, TWO_GROUPS)
        result.objective += 1.0
        problems = check_partition_result(graph, result, cpu_cores=1)
        assert any("objective" in p for p in problems)

    def test_overlap_and_coverage_caught(self):
        graph = offload_friendly_graph()
        result = kernighan_lin_partition(graph, TWO_GROUPS)
        result.gpu_nodes = set(result.gpu_nodes) | {"rx"}
        problems = check_partition_result(graph, result, cpu_cores=1)
        assert any("overlap" in p for p in problems)
        assert any("pinned" in p for p in problems)

    def test_missing_node_caught(self):
        graph = offload_friendly_graph()
        result = PartitionResult(
            cpu_nodes={"rx", "tx"}, gpu_nodes=set(),
            objective=0.0, cut_weight=0.0, cpu_load=0.0, gpu_load=0.0,
            algorithm="bogus", groups={HOST_GROUP: {"rx", "tx"}},
            group_load={HOST_GROUP: 0.0},
        )
        problems = check_partition_result(graph, result, cpu_cores=1)
        assert any("cover" in p for p in problems)


class TestAuditPartitioners:
    def test_fixture_graphs_pass(self):
        for graph in (offload_friendly_graph(), cpu_friendly_graph()):
            audit = audit_partitioners(graph)
            assert audit.ok, audit.summary()

    def test_bound_violation_reported(self):
        # A bound factor of 1.0 demands exact optimality; the
        # agglomerative scheme misses it on the cpu_friendly graph
        # (its GPU seed cluster is unconditional), so the audit must
        # flag the excess instead of passing silently.
        audit = audit_partitioners(
            cpu_friendly_graph(),
            bound_factors={"agglomerative": 1.0},
        )
        assert not audit.ok
        assert any("agglomerative" in p for p in audit.problems)

    def test_summary_mentions_both_algorithms(self):
        audit = audit_partitioners(offload_friendly_graph())
        text = audit.summary()
        assert "kernighan-lin" in text and "agglomerative" in text
