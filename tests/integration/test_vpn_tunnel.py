"""End-to-end VPN tunnel: IPsec gateway -> (wire) -> terminator."""

import pytest

from repro.core.compass import NFCompass
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.nf.ipsec import IPsecGateway, IPsecTerminator
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficGenerator, TrafficSpec

KEY = b"sixteen-byte-key"
AUTH = b"the-authentication-key"


@pytest.fixture
def traffic():
    spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=10.0,
                       seed=14)
    return list(TrafficGenerator(spec).packets(24))


class TestTunnelSemantics:
    def test_encrypt_then_terminate_restores_payloads(self, traffic):
        originals = [p.payload for p in traffic]
        tunnel = ServiceFunctionChain([
            IPsecGateway(key=KEY, auth_key=AUTH, name="vpn-tx"),
            IPsecTerminator(key=KEY, auth_key=AUTH, name="vpn-rx"),
        ])
        out = tunnel.process_packets(traffic)
        assert len(out) == 24
        assert [p.payload for p in out] == originals

    def test_wrong_key_drops_everything(self, traffic):
        tunnel = ServiceFunctionChain([
            IPsecGateway(key=KEY, auth_key=AUTH, name="vpn-tx"),
            IPsecTerminator(key=KEY, auth_key=b"some-other-auth-key",
                            name="vpn-rx"),
        ])
        out = tunnel.process_packets(traffic)
        assert out == []

    def test_tunnel_with_inner_ids(self, traffic):
        """A chain inspecting *decrypted* traffic: gw -> term -> IDS."""
        from repro.net.packet import Packet
        bad = Packet(payload=b"contains exploit marker", seqno=900)
        tunnel = ServiceFunctionChain([
            IPsecGateway(key=KEY, auth_key=AUTH, name="tx"),
            IPsecTerminator(key=KEY, auth_key=AUTH, name="rx"),
            make_nf("ids", patterns=[b"exploit"]),
        ])
        out = tunnel.process_packets(traffic + [bad])
        assert len(out) == 24  # the exploit packet was decrypted and caught
        assert all(p.seqno != 900 for p in out)

    def test_catalog_entry(self):
        nf = make_nf("ipsec-term")
        assert isinstance(nf, IPsecTerminator)

    def test_tunnel_deploys_through_nfcompass(self, traffic):
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                           seed=14)
        compass = NFCompass(platform=PlatformSpec())
        tunnel = ServiceFunctionChain([
            IPsecGateway(key=KEY, auth_key=AUTH),
            IPsecTerminator(key=KEY, auth_key=AUTH),
        ])
        plan = compass.deploy(tunnel, spec, batch_size=32)
        plan.deployment.validate()
        report = compass.engine.session(plan.deployment).run(spec,
                                                             batch_size=32,
                                                             batch_count=20)
        assert report.delivered_packets > 0
        # Gateway then terminator is RAW-dependent: never parallelized.
        if plan.parallel_plan is not None:
            assert plan.parallel_plan.effective_length == 2
