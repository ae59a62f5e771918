"""Unit tests for placements, mappings, and deployments."""

import pytest

from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.mapping import Deployment, Mapping, Placement


@pytest.fixture
def graph():
    return ServiceFunctionChain([make_nf("ipsec")]).concatenated_graph()


class TestPlacementSplit:
    def test_host_only_default(self):
        placement = Placement.split(DEFAULT_HOST_DEVICE)
        assert not placement.offloaded
        assert not placement.fully_offloaded
        assert placement.host == DEFAULT_HOST_DEVICE

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            Placement.split("cpu0", "gpu0", 1.5)

    def test_offload_requires_device(self):
        with pytest.raises(ValueError):
            Placement.split("cpu0", None, 0.5)

    def test_split_requires_host(self):
        with pytest.raises(ValueError):
            Placement.split(None, "gpu0", 0.5)

    def test_fully_offloaded_keeps_host_bookkeeping(self):
        placement = Placement.split("cpu0", "gpu0", 1.0)
        assert placement.offloaded
        assert placement.fully_offloaded
        assert placement.host == "cpu0"
        assert placement.shares == {"gpu0": 1.0}

    def test_split_matches_share_vector(self):
        assert Placement.split("cpu3", "gpu0", 0.3) == \
            Placement(shares={"cpu3": 0.7, "gpu0": 0.3}, host="cpu3")


class TestMapping:
    def test_all_cpu_round_robin(self, graph):
        # The three-NF chain has more nodes than the four-core pool, so
        # the round robin wraps, with or without offloading.
        larger = ServiceFunctionChain(
            [make_nf("probe"), make_nf("lb"), make_nf("firewall")]
        ).concatenated_graph()
        for chain, cores in [(graph, ["cpu0", "cpu1"]),
                             (larger, [f"cpu{i}" for i in range(4)])]:
            assert len(chain) > len(cores)
            for mapping in (Mapping.all_cpu(chain, cores=cores),
                            Mapping.fixed_ratio(chain, 0.5, cores=cores)):
                assert {p.host for _n, p in mapping.items()} == set(cores)
                mapping.validate_against(chain)

    def test_fixed_ratio_offloads_offloadables_only(self, graph):
        mapping = Mapping.fixed_ratio(graph, 0.5)
        offloaded = [n for n, p in mapping.items() if p.offloaded]
        assert offloaded
        for node in offloaded:
            assert graph.element(node).offloadable

    def test_all_gpu_is_full_ratio(self, graph):
        mapping = Mapping.all_gpu(graph)
        for node, placement in mapping.items():
            if placement.offloaded:
                assert placement.offload_total == 1.0

    def test_validate_rejects_missing_nodes(self, graph):
        with pytest.raises(ValueError):
            Mapping({}).validate_against(graph)

    def test_validate_rejects_unknown_nodes(self, graph):
        mapping = Mapping.all_cpu(graph)
        mapping.set("ghost", Placement.split(DEFAULT_HOST_DEVICE))
        with pytest.raises(ValueError):
            mapping.validate_against(graph)

    def test_validate_rejects_offloading_non_offloadable(self, graph):
        mapping = Mapping.all_cpu(graph)
        rx = graph.sources()[0]
        mapping.set(rx, Placement.split(DEFAULT_HOST_DEVICE, "gpu0", 0.5))
        with pytest.raises(ValueError):
            mapping.validate_against(graph)

    def test_processors_used(self, graph):
        mapping = Mapping.fixed_ratio(graph, 0.5, cores=[DEFAULT_HOST_DEVICE],
                                      gpus=["gpu1"])
        used = mapping.processors_used()
        assert "cpu0" in used
        assert "gpu1" in used


class TestDeployment:
    def test_validate_composes(self, graph):
        deployment = Deployment(graph, Mapping.all_cpu(graph))
        deployment.validate()

    def test_invalid_deployment_caught(self, graph):
        with pytest.raises(ValueError):
            Deployment(graph, Mapping({})).validate()
