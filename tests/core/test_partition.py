"""Unit tests for the partitioning algorithms."""

import networkx as nx
import pytest
from builders import cpu_friendly_graph, offload_friendly_graph, \
    weighted_graph

from repro.core.partition import (
    HOST_GROUP,
    agglomerative_partition,
    evaluate,
    kernighan_lin_partition,
)

#: One CPU core and one GPU: the paper's two device groups.
TWO_GROUPS = {HOST_GROUP: 1, "gpu": 1}


@pytest.fixture
def offload_friendly():
    return offload_friendly_graph()


@pytest.fixture
def cpu_friendly():
    return cpu_friendly_graph()


class TestEvaluate:
    def test_all_cpu_objective(self, offload_friendly):
        objective, cut, cpu_load, gpu_load = evaluate(
            offload_friendly, set(), cpu_cores=4)
        assert cut == 0.0
        assert gpu_load == 0.0
        assert cpu_load == pytest.approx(102.0)
        # With 4 cores the heaviest single element (100) dominates
        # cpu_load / cores (25.5).
        assert objective == pytest.approx(100.0)

    def test_offload_objective_includes_cut(self, offload_friendly):
        from repro.core.partition import CUT_PIPELINE_FACTOR
        objective, cut, _c, gpu_load = evaluate(
            offload_friendly, {"heavy"}, cpu_cores=1)
        assert cut == pytest.approx(1.0)
        assert gpu_load == pytest.approx(5.0)
        assert objective == pytest.approx(
            5.0 + CUT_PIPELINE_FACTOR * 1.0)

    def test_group_bottleneck_dominates_division(self):
        graph = weighted_graph(
            {"a#1": (10.0, 1.0, None), "a#2": (10.0, 1.0, None)},
            [],
        )
        graph.nodes["a#1"]["group"] = "a"
        graph.nodes["a#2"]["group"] = "a"
        objective, *_ = evaluate(graph, set(), cpu_cores=8)
        # Slices of one element share a core: bottleneck is 20, not 20/8.
        assert objective == pytest.approx(20.0)

    def test_gpu_units_divide_gpu_load(self):
        graph = weighted_graph(
            {"a": (10.0, 4.0, None), "b": (10.0, 4.0, None)},
            [],
        )
        one, *_ = evaluate(graph, {"a", "b"}, cpu_cores=1, gpu_units=1)
        two, *_ = evaluate(graph, {"a", "b"}, cpu_cores=1, gpu_units=2)
        assert two < one


class TestKernighanLin:
    def test_offloads_when_beneficial(self, offload_friendly):
        result = kernighan_lin_partition(offload_friendly, TWO_GROUPS)
        assert "heavy" in result.gpu_nodes
        assert result.algorithm == "kernighan-lin"

    def test_stays_on_cpu_when_cut_dominates(self, cpu_friendly):
        result = kernighan_lin_partition(cpu_friendly, TWO_GROUPS)
        assert "light" in result.cpu_nodes

    def test_pinned_nodes_never_move(self, offload_friendly):
        result = kernighan_lin_partition(offload_friendly, TWO_GROUPS)
        assert "rx" in result.cpu_nodes
        assert "tx" in result.cpu_nodes

    def test_partition_covers_all_nodes_exactly_once(self,
                                                     offload_friendly):
        result = kernighan_lin_partition(offload_friendly, TWO_GROUPS)
        assert result.cpu_nodes | result.gpu_nodes == \
            set(offload_friendly.nodes)
        assert not result.cpu_nodes & result.gpu_nodes

    def test_never_worse_than_initial(self, offload_friendly):
        all_cpu = evaluate(offload_friendly, set(), cpu_cores=1)[0]
        result = kernighan_lin_partition(offload_friendly, TWO_GROUPS)
        assert result.objective <= all_cpu

    def test_empty_graph(self):
        result = kernighan_lin_partition(nx.Graph(), TWO_GROUPS)
        assert result.objective == 0.0


class TestAgglomerative:
    def test_offloads_when_beneficial(self, offload_friendly):
        result = agglomerative_partition(offload_friendly, TWO_GROUPS)
        assert "heavy" in result.gpu_nodes
        assert result.algorithm == "agglomerative"

    def test_pinned_nodes_stay_cpu(self, offload_friendly):
        result = agglomerative_partition(offload_friendly, TWO_GROUPS)
        assert {"rx", "tx"} <= result.cpu_nodes

    def test_partition_is_total(self, cpu_friendly):
        result = agglomerative_partition(cpu_friendly, TWO_GROUPS)
        assert result.cpu_nodes | result.gpu_nodes == \
            set(cpu_friendly.nodes)

    def test_heavy_edges_not_cut(self):
        """The heaviest edge's endpoints end up on the same side."""
        graph = weighted_graph(
            {
                "rx": (1.0, float("inf"), "cpu"),
                "a": (50.0, 3.0, None),
                "b": (50.0, 3.0, None),
                "tx": (1.0, float("inf"), "cpu"),
            },
            [("rx", "a", 0.1), ("a", "b", 100.0), ("b", "tx", 0.1)],
        )
        result = agglomerative_partition(graph, TWO_GROUPS)
        assert (("a" in result.gpu_nodes) == ("b" in result.gpu_nodes))

    def test_empty_graph(self):
        result = agglomerative_partition(nx.Graph(), TWO_GROUPS)
        assert result.cpu_nodes == set()

    def test_seeds_stay_distinct_without_pinned_nodes(self):
        """With no pinned node the host seed is the first node; the
        GPU seed must be another node even when the first one has the
        best GPU/CPU time ratio, so the host seed stays on the host."""
        graph = weighted_graph(
            {
                "first": (10.0, 1.0, None),
                "second": (10.0, 5.0, None),
                "third": (10.0, 8.0, None),
            },
            [("first", "second", 0.5), ("second", "third", 0.5)],
        )
        result = agglomerative_partition(graph, TWO_GROUPS)
        assert result.group_of("first") == HOST_GROUP
        assert result.groups["gpu"]


class TestGroupOf:
    def test_group_of(self, offload_friendly):
        result = kernighan_lin_partition(offload_friendly, TWO_GROUPS)
        for node in offload_friendly.nodes:
            group = result.group_of(node)
            assert (node in result.gpu_nodes) == (group == "gpu")
