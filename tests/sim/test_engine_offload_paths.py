"""Engine coverage for offload-specific paths: stateful reassembly,
GPU contiguity (transfer skipping), and overhead attribution."""

import pytest

from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.mapping import Deployment, Mapping, Placement
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                       seed=8)


def chain_graph(*types):
    return ServiceFunctionChain(
        [make_nf(t) for t in types]
    ).concatenated_graph()


class TestStatefulReassembly:
    def test_reassembly_cost_charged_when_enabled(self, engine, spec):
        graph = chain_graph("ipsec")
        mapping = Mapping.fixed_ratio(graph, 0.5)
        plain = Deployment(graph, mapping, stateful_reassembly=False)
        stateful = Deployment(graph, mapping, stateful_reassembly=True)
        report_plain = engine.session(plain).run(spec, batch_size=32,
                                                 batch_count=20)
        report_stateful = engine.session(stateful).run(spec, batch_size=32,
                                                       batch_count=20)
        assert report_plain.overheads.reassembly == 0.0
        assert report_stateful.overheads.reassembly > 0.0

    def test_reassembly_only_charged_for_offloaded_elements(self,
                                                            engine,
                                                            spec):
        graph = chain_graph("ipsec")
        deployment = Deployment(graph, Mapping.all_cpu(graph),
                                stateful_reassembly=True)
        report = engine.session(deployment).run(spec, batch_size=32,
                                                batch_count=20)
        assert report.overheads.reassembly == 0.0


class TestGpuContiguity:
    def _mapping(self, graph, shared_gpu: bool):
        """Fully offload both offloadable elements, on one GPU or two."""
        from repro.elements.offload import OffloadableElement
        placements = {}
        gpu_index = 0
        for node in graph.topological_order():
            element = graph.element(node)
            if isinstance(element, OffloadableElement) \
                    and element.offloadable:
                gpu = "gpu0" if shared_gpu else f"gpu{gpu_index % 2}"
                gpu_index += 1
                placements[node] = Placement.split(
                    DEFAULT_HOST_DEVICE, gpu, 1.0
                )
            else:
                placements[node] = Placement.split(DEFAULT_HOST_DEVICE)
        return Mapping(placements)

    def test_adjacent_gpu_elements_skip_intermediate_transfers(
            self, engine, spec):
        """firewall->ipv4: classify and lookup are adjacent after
        concatenation?  They are separated by check elements, so use a
        chain where offloadables really are adjacent: dpi's match feeds
        ids' match after synthesis is not guaranteed — instead compare
        same-GPU vs split-GPU placements of the same graph: the
        same-GPU deployment must transfer no more, typically less."""
        graph = chain_graph("firewall", "ipv4")
        same = Deployment(graph, self._mapping(graph, shared_gpu=True),
                          persistent_kernel=True, name="same")
        split = Deployment(graph, self._mapping(graph, shared_gpu=False),
                           persistent_kernel=True, name="split")
        report_same = engine.session(same).run(spec, batch_size=32,
                                               batch_count=30)
        report_split = engine.session(split).run(spec, batch_size=32,
                                                 batch_count=30)
        assert report_same.overheads.pcie_transfer <= \
            report_split.overheads.pcie_transfer + 1e-12

    def test_truly_adjacent_offloaded_pair_transfers_less(self, engine,
                                                          spec):
        """Build a graph where two offloadable elements are directly
        adjacent and verify the same-GPU placement skips the
        intermediate hop entirely."""
        from repro.elements.config import parse_config
        graph = parse_config("""
            src :: FromDevice();
            a :: IPsecEncrypt(spi=1);
            b :: PatternMatch(patterns=8);
            dst :: ToDevice();
            src -> a -> b -> dst;
        """)
        same = Deployment(graph, self._mapping(graph, shared_gpu=True),
                          persistent_kernel=True)
        split = Deployment(graph,
                           self._mapping(graph, shared_gpu=False),
                           persistent_kernel=True)
        report_same = engine.session(same).run(spec, batch_size=32,
                                               batch_count=30)
        report_split = engine.session(split).run(spec, batch_size=32,
                                                 batch_count=30)
        assert report_same.overheads.pcie_transfer < \
            report_split.overheads.pcie_transfer


class TestOverheadAttribution:
    def test_duplication_charged_for_parallel_stages(self, spec,
                                                     engine):
        from repro.core.orchestrator import SFCOrchestrator
        from repro.sim.engine import BranchProfile
        sfc = ServiceFunctionChain([make_nf("firewall"), make_nf("ids")])
        _plan, graph = SFCOrchestrator().parallelize(sfc)
        profile = BranchProfile.measure(graph, spec,
                                        sample_packets=128,
                                        batch_size=32)
        deployment = Deployment(graph, Mapping.all_cpu(graph))
        report = engine.session(deployment).run(spec, batch_size=32,
                                                batch_count=20,
                                                branch_profile=profile)
        assert report.overheads.duplication > 0.0
        assert report.overheads.reorganization_fraction > 0.0

    def test_split_charged_at_classifiers(self, spec, engine):
        graph = chain_graph("firewall")  # classify has 2 live ports
        from repro.sim.engine import BranchProfile
        profile = BranchProfile.measure(graph, spec,
                                        sample_packets=128,
                                        batch_size=32)
        deployment = Deployment(graph, Mapping.all_cpu(graph))
        report = engine.session(deployment).run(spec, batch_size=32,
                                                batch_count=20,
                                                branch_profile=profile)
        # With a deny-free default ACL everything takes port 0, so no
        # split should be charged; force a two-way profile to see it.
        forced = BranchProfile(port_fractions={
            node: {0: 0.5, 1: 0.5}
            for node in graph.nodes
            if graph.element(node).kind == "AclClassify"
        })
        report_forced = engine.session(deployment).run(spec, batch_size=32,
                                                       batch_count=20,
                                                       branch_profile=forced)
        assert report_forced.overheads.batch_split > \
            report.overheads.batch_split