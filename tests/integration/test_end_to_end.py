"""Cross-module integration tests.

These exercise whole user journeys: config text -> graph -> NFCompass
-> simulation; multi-stage differential checks between functional
execution paths.
"""

import pytest

from repro.core.compass import NFCompass
from repro.elements.config import parse_config
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import NF_CATALOG, make_nf
from repro.sim.engine import BranchProfile, SimulationEngine
from repro.sim.mapping import Deployment, Mapping
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficGenerator, TrafficSpec


class TestConfigToSimulation:
    def test_click_config_through_engine(self):
        """The paper's Fig. 1-style config runs end to end."""
        graph = parse_config("""
            src  :: FromDevice(eth0);
            chk  :: CheckIPHeader();
            fw   :: AclClassify(rules=100, seed=3);
            ids  :: PatternMatch(patterns=16, seed=9);
            act  :: MatchVerdict(drop=true);
            lkup :: IPv4Lookup(prefixes=512, seed=2);
            ttl  :: DecIPTTL();
            out  :: ToDevice(eth1);
            src -> chk -> fw;
            fw [0] -> ids -> act -> lkup -> ttl -> out;
            fw [1] -> out;
        """, name="gateway")
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                           seed=4)
        engine = SimulationEngine(PlatformSpec())
        profile = BranchProfile.measure(graph, spec,
                                        sample_packets=256,
                                        batch_size=32)
        mapping = Mapping.all_cpu(
            graph, cores=engine.platform.cpu_processor_ids(6)
        )
        deployment = Deployment(graph, mapping, name="gateway")
        report = engine.session(deployment).run(
            spec, batch_size=32, batch_count=50, branch_profile=profile)
        assert report.throughput_gbps > 0
        assert report.delivered_packets > 0


class TestWholeCatalogDeployments:
    @pytest.mark.parametrize("nf_type", sorted(NF_CATALOG))
    def test_every_nf_deploys_through_nfcompass(self, nf_type):
        """Each catalog NF survives the full pipeline and simulation."""
        spec = TrafficSpec(
            size_law=FixedSize(256), offered_gbps=40.0, seed=3,
            ip_version=6 if nf_type == "ipv6" else 4,
        )
        compass = NFCompass(platform=PlatformSpec())
        sfc = ServiceFunctionChain([make_nf(nf_type)])
        plan = compass.deploy(sfc, spec, batch_size=32)
        plan.deployment.validate()
        report = compass.engine.session(plan.deployment).run(spec,
                                                             batch_size=32,
                                                             batch_count=20)
        assert report.delivered_packets >= 0
        assert report.makespan_seconds > 0


class TestReorganizationEquivalence:
    @pytest.mark.parametrize("nf_types", [
        ("probe", "firewall", "ids", "lb"),
        ("firewall", "nat"),
        ("lb", "probe", "dpi"),
    ])
    def test_compass_graph_matches_sequential_semantics(self, nf_types):
        """NFCompass's re-organized + synthesized graph produces the
        same surviving packets as naive sequential execution."""
        spec = TrafficSpec(size_law=FixedSize(200), offered_gbps=10.0,
                           seed=9)
        packets = list(TrafficGenerator(spec).packets(24))
        reference_sfc = ServiceFunctionChain(
            [make_nf(t) for t in nf_types]
        )
        expected = reference_sfc.process_packets(
            [p.clone() for p in packets]
        )
        compass = NFCompass(platform=PlatformSpec())
        target_sfc = ServiceFunctionChain(
            [make_nf(t) for t in nf_types]
        )
        plan = compass.deploy(target_sfc, spec, batch_size=24)
        actual = plan.deployment.graph.run_packets(
            [p.clone() for p in packets]
        )
        assert [p.to_bytes() for p in expected] == \
            [p.to_bytes() for p in actual]
