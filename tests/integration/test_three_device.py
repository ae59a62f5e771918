"""End-to-end run on a three-device platform (CPU + GPU + SmartNIC).

The acceptance test for the device-neutral refactor: a platform with
an extra data-registered device kind flows through the whole pipeline
— expansion, three-group partitioning, share-vector lowering, and the
event kernel — with a chain actually split across all three devices
and DMA traffic on both interconnects.
"""

import warnings

import pytest

from repro.core.compass import NFCompass
from repro.core.partition import HOST_GROUP
from repro.hw import SMARTNIC_KIND
from repro.hw.costs import CostModel
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import SimulationEngine
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


@pytest.fixture
def platform():
    return PlatformSpec.small().with_smartnic()


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                       seed=7)


@pytest.fixture
def sfc():
    return ServiceFunctionChain(
        [make_nf("ipv4"), make_nf("ipsec"), make_nf("dpi")]
    )


class TestThreeDevicePipeline:
    def test_chain_partitioned_across_all_three_devices(self, platform,
                                                        spec, sfc):
        compass = NFCompass(platform=platform)
        with warnings.catch_warnings():
            # The device-neutral pipeline must not lean on anything
            # deprecated.
            warnings.simplefilter("error", DeprecationWarning)
            result = compass.run(sfc, spec, batch_size=64,
                                 batch_count=50)
        report = result.plan.allocation_report

        groups = report.partition.device_groups()
        populated = {g for g, nodes in groups.items() if nodes}
        assert {HOST_GROUP, "gpu", SMARTNIC_KIND} <= populated

        assert report.device_shares
        devices_hit = set()
        for shares in report.device_shares.values():
            devices_hit |= set(shares)
        assert {"gpu", SMARTNIC_KIND} <= devices_hit

        assert result.report.throughput_gbps > 0

    def test_both_interconnects_carry_traffic(self, platform, spec,
                                              sfc):
        compass = NFCompass(platform=platform)
        result = compass.run(sfc, spec, batch_size=64, batch_count=50)
        busy = result.report.processor_busy_seconds
        assert any(r.startswith("pcie:") for r in busy)
        assert any(r.startswith("nicdma:") for r in busy)
        assert "nic0" in busy

    def test_simulator_direct_three_device_session(self, platform,
                                                   spec):
        from repro.sim.engine import BranchProfile
        from repro.sim.mapping import Deployment, Mapping, Placement

        graph = ServiceFunctionChain(
            [make_nf("ipsec"), make_nf("dpi")]
        ).concatenated_graph()
        mapping = Mapping.all_cpu(
            graph, cores=platform.cpu_processor_ids(4))
        for node in graph.topological_order():
            element = graph.element(node)
            if getattr(element, "offloadable", False):
                mapping.set(node, Placement(
                    shares={"cpu1": 0.5, "gpu0": 0.3, "nic0": 0.2},
                    host="cpu1"))
        deployment = Deployment(graph, mapping, persistent_kernel=True,
                                name="three-device")
        deployment.validate()
        engine = SimulationEngine(platform, CostModel(platform))
        profile = BranchProfile.measure(graph.clone(), spec,
                                        sample_packets=128,
                                        batch_size=64)
        report = engine.run(deployment, spec, batch_size=64,
                            batch_count=50, branch_profile=profile)
        assert report.throughput_gbps > 0
        busy = report.processor_busy_seconds
        assert busy.get("gpu0", 0.0) > 0
        assert busy.get("nic0", 0.0) > 0
        assert busy.get("nicdma:nic0:h2d", 0.0) > 0
        assert busy.get("pcie:gpu0:d2h", 0.0) > 0

    def test_agglomerative_deploy(self, platform, spec):
        """Agglomerative over three groups places every straggler
        cluster."""
        compass = NFCompass(platform=platform, algorithm="agglomerative")
        sfc = ServiceFunctionChain([make_nf("firewall"), make_nf("ids")])
        result = compass.run(sfc, spec, batch_size=64, batch_count=50)
        partition = result.plan.allocation_report.partition
        assert partition.algorithm == "agglomerative"
        assigned = set()
        for nodes in partition.device_groups().values():
            assigned |= nodes
        assert assigned == set(
            result.plan.allocation_report.expanded.pgraph.nodes)
        assert result.report.throughput_gbps > 0

    def test_two_device_platform_unaffected(self, spec, sfc):
        """The default platform partitions into exactly the host and
        the GPU group."""
        compass = NFCompass(platform=PlatformSpec.small())
        result = compass.run(sfc, spec, batch_size=64, batch_count=50)
        report = result.plan.allocation_report
        groups = report.partition.device_groups()
        assert set(groups) == {HOST_GROUP, "gpu"}
        assert result.report.throughput_gbps > 0
