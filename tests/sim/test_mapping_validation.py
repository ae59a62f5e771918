"""Validation-path tests for share-vector placements and mappings.

Covers the edges the binary triple used to own — GPU-only placements,
non-offloadable elements, zero/one offload ratios — plus the new
share-vector constructor's own error surface.
"""

import pytest

from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.mapping import Deployment, Mapping, Placement


@pytest.fixture
def graph():
    return ServiceFunctionChain(
        [make_nf("ipsec"), make_nf("nat")]
    ).concatenated_graph()


def offloadable_nodes(graph):
    return [n for n in graph.topological_order()
            if getattr(graph.element(n), "offloadable", False)]


class TestShareVectorConstruction:
    def test_shares_sum_must_be_one(self):
        with pytest.raises(ValueError):
            Placement(shares={"cpu0": 0.5, "gpu0": 0.2})

    def test_empty_shares_rejected(self):
        with pytest.raises(ValueError):
            Placement(shares={})

    def test_zero_shares_dropped(self):
        placement = Placement(shares={"cpu0": 1.0, "gpu0": 0.0})
        assert placement.devices_used() == ["cpu0"]
        assert not placement.offloaded

    def test_negative_share_rejected(self):
        with pytest.raises(ValueError):
            Placement(shares={"cpu0": 1.5, "gpu0": -0.5})

    def test_non_string_device_id_rejected(self):
        with pytest.raises(ValueError):
            Placement(shares={3: 1.0})

    def test_host_defaults_to_first_cpu_share(self):
        placement = Placement(shares={"cpu3": 0.6, "gpu0": 0.4})
        assert placement.host == "cpu3"
        assert placement.host_share == pytest.approx(0.6)

    def test_host_defaults_when_no_cpu_share(self):
        placement = Placement(shares={"gpu0": 1.0})
        assert placement.host == DEFAULT_HOST_DEVICE
        assert placement.fully_offloaded
        assert placement.host_share == 0.0

    def test_three_device_vector(self):
        placement = Placement(
            shares={"cpu1": 0.4, "gpu0": 0.4, "nic0": 0.2},
            host="cpu1")
        assert placement.offload_shares == {"gpu0": 0.4, "nic0": 0.2}
        assert placement.offload_total == pytest.approx(0.6)
        assert placement.share_of("nic0") == pytest.approx(0.2)
        assert placement.share_of("absent") == 0.0

    def test_on_places_whole_batch(self):
        placement = Placement.on("gpu0", host="cpu2")
        assert placement.fully_offloaded
        assert placement.host == "cpu2"
        assert placement.shares == {"gpu0": 1.0}

    def test_split_equals_share_vector(self):
        split = Placement.split("cpu3", "gpu0", 0.3)
        modern = Placement(shares={"cpu3": 0.7, "gpu0": 0.3},
                           host="cpu3")
        assert split == modern
        assert hash(split) == hash(modern)


class TestRatioEdges:
    def test_zero_ratio_is_host_only(self):
        placement = Placement.split("cpu1", "gpu0", 0.0)
        assert not placement.offloaded
        assert placement.devices_used() == ["cpu1"]
        assert placement.host_share == 1.0

    def test_one_ratio_is_fully_offloaded(self):
        placement = Placement.split(DEFAULT_HOST_DEVICE, "gpu0", 1.0)
        assert placement.fully_offloaded
        assert placement.devices_used() == ["gpu0"]
        assert placement.host == DEFAULT_HOST_DEVICE


class TestMappingValidation:
    def test_gpu_only_placement_validates(self, graph):
        mapping = Mapping.all_cpu(graph)
        node = offloadable_nodes(graph)[0]
        mapping.set(node, Placement.on("gpu0"))
        mapping.validate_against(graph)

    def test_gpu_only_on_non_offloadable_rejected(self, graph):
        mapping = Mapping.all_cpu(graph)
        rx = graph.sources()[0]
        mapping.set(rx, Placement.on("gpu0"))
        with pytest.raises(ValueError, match="not offloadable"):
            mapping.validate_against(graph)

    def test_multi_device_share_on_offloadable_validates(self, graph):
        mapping = Mapping.all_cpu(graph)
        node = offloadable_nodes(graph)[0]
        mapping.set(node, Placement(
            shares={"cpu0": 0.5, "gpu0": 0.3, "nic0": 0.2}))
        mapping.validate_against(graph)
        deployment = Deployment(graph, mapping)
        deployment.validate()

    def test_processors_used_lists_every_device(self, graph):
        mapping = Mapping.all_cpu(graph)
        node = offloadable_nodes(graph)[0]
        mapping.set(node, Placement(
            shares={"cpu0": 0.5, "gpu0": 0.3, "nic0": 0.2}))
        used = mapping.processors_used()
        assert {"cpu0", "gpu0", "nic0"} <= set(used)

    def test_zero_ratio_never_flags_offload(self, graph):
        mapping = Mapping.fixed_ratio(graph, 0.0)
        for _node, placement in mapping.items():
            assert not placement.offloaded
        mapping.validate_against(graph)
