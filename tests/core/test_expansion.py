"""Unit tests for fine-grained element expansion."""

import pytest

from repro.core.expansion import expand_graph
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf


@pytest.fixture
def graph():
    return ServiceFunctionChain([make_nf("ipsec")]).concatenated_graph()


class TestExpansion:
    def test_offloadable_elements_sliced(self, graph):
        expanded = expand_graph(graph, delta=0.1)
        encrypt = [n for n in graph.nodes if "encrypt" in n][0]
        assert len(expanded.slices_per_node[encrypt]) == 10
        for instance_id in expanded.slices_per_node[encrypt]:
            instance = expanded.instances[instance_id]
            assert instance.share == pytest.approx(0.1)
            assert instance.pinned is None

    def test_non_offloadable_single_pinned_instance(self, graph):
        expanded = expand_graph(graph)
        rx = graph.sources()[0]
        assert expanded.slices_per_node[rx] == [rx]
        assert expanded.instances[rx].pinned == "cpu"
        assert expanded.instances[rx].share == 1.0

    def test_shares_sum_to_one_per_element(self, graph):
        expanded = expand_graph(graph, delta=0.25)
        for node, slices in expanded.slices_per_node.items():
            total = sum(expanded.instances[s].share for s in slices)
            assert total == pytest.approx(1.0)

    def test_edge_shares_preserved_across_bundles(self, graph):
        """The bundle of slice-to-slice edges carries the original
        edge's full traffic share."""
        expanded = expand_graph(graph, delta=0.1)
        for edge in graph.edges:
            bundle_share = 0.0
            for src_slice in expanded.slices_per_node[edge.src]:
                for dst_slice in expanded.slices_per_node[edge.dst]:
                    if expanded.pgraph.has_edge(src_slice, dst_slice):
                        bundle_share += expanded.pgraph[src_slice][
                            dst_slice]["share"]
            assert bundle_share == pytest.approx(1.0)

    def test_invalid_delta_rejected(self, graph):
        with pytest.raises(ValueError):
            expand_graph(graph, delta=0.0)
        with pytest.raises(ValueError):
            expand_graph(graph, delta=1.5)

    def test_delta_one_means_single_instance(self, graph):
        expanded = expand_graph(graph, delta=1.0)
        for node, slices in expanded.slices_per_node.items():
            assert len(slices) == 1

    def test_offload_ratio_from_gpu_assignment(self, graph):
        expanded = expand_graph(graph, delta=0.1)
        encrypt = [n for n in graph.nodes if "encrypt" in n][0]
        slices = expanded.slices_per_node[encrypt]
        gpu_side = set(slices[:7])
        assert expanded.group_shares(encrypt, {"gpu": gpu_side}) == \
            {"gpu": pytest.approx(0.7)}
        assert expanded.group_shares(encrypt, {"gpu": set()}) == {}

    def test_stateful_elements_not_expanded(self):
        graph = ServiceFunctionChain([make_nf("nat")]).concatenated_graph()
        expanded = expand_graph(graph)
        rewrite = [n for n in graph.nodes if "rewrite" in n][0]
        assert expanded.slices_per_node[rewrite] == [rewrite]
        assert expanded.instances[rewrite].pinned == "cpu"
