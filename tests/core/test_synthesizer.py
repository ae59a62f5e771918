"""Unit and differential tests for the NF synthesizer."""

import pytest

from repro.core.compass import NFCompass
from repro.core.synthesizer import NFSynthesizer
from repro.elements.element import ActionProfile, Element, TrafficClass
from repro.elements.graph import ElementGraph
from repro.elements.standard import (
    CheckIPHeader,
    Counter,
    DecIPTTL,
    FromDevice,
    Paint,
    ToDevice,
)
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf


@pytest.fixture
def synthesizer():
    return NFSynthesizer()


def kinds_of(graph):
    return [e.kind for e in graph.elements().values()]


class TestIOSplicing:
    def test_interior_io_removed(self, synthesizer):
        sfc = ServiceFunctionChain([make_nf("probe"), make_nf("lb")])
        graph, report = synthesizer.synthesize(sfc.concatenated_graph())
        assert report.spliced_io == 2  # one ToDevice + one FromDevice
        assert kinds_of(graph).count("ToDevice") == 1
        assert kinds_of(graph).count("FromDevice") == 1

    def test_terminal_io_kept(self, synthesizer):
        sfc = ServiceFunctionChain([make_nf("probe")])
        graph, report = synthesizer.synthesize(sfc.concatenated_graph())
        assert report.spliced_io == 0
        assert "FromDevice" in kinds_of(graph)
        assert "ToDevice" in kinds_of(graph)

    def test_depth_reduced(self, synthesizer):
        sfc = ServiceFunctionChain([make_nf("probe"), make_nf("probe")])
        original = sfc.concatenated_graph()
        graph, report = synthesizer.synthesize(original)
        assert report.depth_after < report.depth_before


class TestDeduplication:
    def test_duplicate_check_ip_header_removed(self, synthesizer):
        """The Fig. 10 case: two NFs both start with CheckIPHeader."""
        sfc = ServiceFunctionChain([make_nf("probe"), make_nf("lb")])
        graph, report = synthesizer.synthesize(sfc.concatenated_graph())
        assert report.deduplicated >= 1
        assert kinds_of(graph).count("CheckIPHeader") == 1

    def test_dedup_blocked_by_intervening_header_writer(self, synthesizer):
        """CheckIPHeader -> DecIPTTL -> CheckIPHeader: the TTL write
        may change the second check's verdict, so it must stay."""
        graph = ElementGraph(name="blocked")
        graph.chain(FromDevice(name="rx"), CheckIPHeader(name="c1"),
                    DecIPTTL(name="ttl"), CheckIPHeader(name="c2"),
                    ToDevice(name="tx"))
        out, report = synthesizer.synthesize(graph)
        assert report.deduplicated == 0
        assert kinds_of(out).count("CheckIPHeader") == 2

    def test_dedup_requires_idempotence(self, synthesizer):
        """Two DecIPTTLs both take effect (not idempotent): kept."""
        graph = ElementGraph(name="ttl2")
        graph.chain(FromDevice(name="rx"), DecIPTTL(name="t1"),
                    DecIPTTL(name="t2"), ToDevice(name="tx"))
        out, report = synthesizer.synthesize(graph)
        assert kinds_of(out).count("DecIPTTL") == 2

    def test_same_kind_interference_blocks_dedup(self, synthesizer):
        """Paint(1); Paint(2); Paint(1): the middle paint makes the
        third non-redundant (annotation state the region model cannot
        see)."""
        graph = ElementGraph(name="paints")
        graph.chain(FromDevice(name="rx"), Paint(1, name="p1"),
                    Paint(2, name="p2"), Paint(1, name="p3"),
                    ToDevice(name="tx"))
        out, report = synthesizer.synthesize(graph)
        assert kinds_of(out).count("Paint") == 3

    def test_adjacent_identical_paints_deduped(self, synthesizer):
        graph = ElementGraph(name="paints")
        graph.chain(FromDevice(name="rx"), Paint(1, name="p1"),
                    Paint(1, name="p2"), ToDevice(name="tx"))
        out, report = synthesizer.synthesize(graph)
        assert report.deduplicated == 1
        assert kinds_of(out).count("Paint") == 1

    def test_shared_lookup_blocked_by_ttl_writer(self, synthesizer):
        """Two forwarders sharing one FIB: the conservative header-
        region model keeps both lookups because the intervening
        DecIPTTL writes the header (it cannot see that the destination
        field is untouched)."""
        from repro.nf.ipv4 import IPv4Forwarder, LPMTrie
        table = LPMTrie.random_table(64)
        sfc = ServiceFunctionChain([
            IPv4Forwarder(table=table, name="r1"),
            IPv4Forwarder(table=table, name="r2"),
        ])
        graph, report = synthesizer.synthesize(sfc.concatenated_graph())
        assert kinds_of(graph).count("IPv4Lookup") == 2
        assert kinds_of(graph).count("DecIPTTL") == 2

    def test_shared_select_deduped_without_writers(self, synthesizer):
        """Two LBs sharing a pool dedup their BackendSelect (no
        intervening writers in the read-only chain)."""
        from repro.nf.loadbalancer import LoadBalancer
        sfc = ServiceFunctionChain([
            LoadBalancer(backends=["a", "b"], name="lb1"),
            LoadBalancer(backends=["a", "b"], name="lb2"),
        ])
        # Same pool_id requires same NF name prefixing; rebuild cores
        # with a shared pool id by patching after construction.
        graph = sfc.concatenated_graph()
        selects = [e for e in graph.elements().values()
                   if e.kind == "BackendSelect"]
        for element in selects:
            element.pool_id = "shared-pool"
        out, report = synthesizer.synthesize(graph)
        assert kinds_of(out).count("BackendSelect") == 1


class TestPatternSets:
    """Two scanners of one NF type are one scanner only when they scan
    the same patterns: ``pattern_set_id`` names the NF type, not the
    set, so the signature must carry the patterns too."""

    SECOND = {
        "patterns": {"patterns": [b"BBBB"]},
    }

    @staticmethod
    def chain(nf_type, second):
        return ServiceFunctionChain([
            make_nf(nf_type, patterns=[b"AAAA"]),
            make_nf(nf_type, **second),
        ])

    @staticmethod
    def marked_packets(generator):
        """16 packets, every other one carrying ``BBBB``."""
        packets = list(generator.packets(16))
        for packet in packets[1::2]:
            packet.payload = b"xxBBBBxx" + packet.payload[8:]
        return packets

    @pytest.mark.parametrize("nf_type", ["ids", "dpi"])
    @pytest.mark.parametrize("second", sorted(SECOND))
    def test_different_sets_both_kept(self, synthesizer, nf_type, second):
        sfc = self.chain(nf_type, self.SECOND[second])
        graph, _report = synthesizer.synthesize(sfc.concatenated_graph())
        assert kinds_of(graph).count("PatternMatch") == 2
        # Equal sets still dedup.
        same = self.chain(nf_type, {"patterns": [b"AAAA"]})
        graph, _report = synthesizer.synthesize(same.concatenated_graph())
        assert kinds_of(graph).count("PatternMatch") == 1

    @pytest.mark.parametrize("second", sorted(SECOND))
    def test_deployed_plan_drops_what_the_chain_drops(self, generator,
                                                      udp_spec, second):
        packets = self.marked_packets(generator)
        sequential = self.chain("ids", self.SECOND[second]) \
            .concatenated_graph().run_packets([p.clone() for p in packets])
        assert len(sequential) == 8
        plan = NFCompass().deploy(self.chain("ids", self.SECOND[second]),
                                  udp_spec)
        deployed = plan.graph.run_packets([p.clone() for p in packets])
        assert [p.to_bytes() for p in deployed] == \
            [p.to_bytes() for p in sequential]


class TestDropHoisting:
    def test_filter_hoisted_past_independent_modifier(self, synthesizer):
        """A payload-reading dropper moves before a header modifier."""

        class PayloadFilter(Element):
            traffic_class = TrafficClass.FILTER
            actions = ActionProfile(reads_payload=True, drops=True)

            def process(self, batch):
                return {0: batch}

        graph = ElementGraph(name="hoist")
        graph.chain(FromDevice(name="rx"), DecIPTTL(name="mod"),
                    PayloadFilter(name="filt"), ToDevice(name="tx"))
        out, report = synthesizer.synthesize(graph)
        assert report.hoisted_drops == 1
        order = out.topological_order()
        assert order.index("filt") < order.index("mod")

    def test_filter_not_hoisted_past_conflicting_modifier(self,
                                                          synthesizer):
        """A header-reading dropper must not cross a header writer."""

        class HeaderFilter(Element):
            traffic_class = TrafficClass.FILTER
            actions = ActionProfile(reads_header=True, drops=True)

            def process(self, batch):
                return {0: batch}

        graph = ElementGraph(name="nohoist")
        graph.chain(FromDevice(name="rx"), DecIPTTL(name="mod"),
                    HeaderFilter(name="filt"), ToDevice(name="tx"))
        out, report = synthesizer.synthesize(graph)
        assert report.hoisted_drops == 0

    def test_filter_not_hoisted_past_observer(self, synthesizer):
        """Alerts/logs must fire in the same packet state (paper rule)."""

        class PayloadFilter(Element):
            traffic_class = TrafficClass.FILTER
            actions = ActionProfile(reads_payload=True, drops=True)

            def process(self, batch):
                return {0: batch}

        graph = ElementGraph(name="observer")
        graph.chain(FromDevice(name="rx"), Counter(name="log"),
                    PayloadFilter(name="filt"), ToDevice(name="tx"))
        out, report = synthesizer.synthesize(graph)
        assert report.hoisted_drops == 0
        order = out.topological_order()
        assert order.index("log") < order.index("filt")


class TestBehaviourPreservation:
    @pytest.mark.parametrize("nf_types", [
        ("probe", "lb"),
        ("firewall", "ids"),
        ("firewall", "ipv4", "nat"),
        ("ids", "proxy"),
    ])
    def test_differential_execution(self, synthesizer, generator,
                                    nf_types):
        """The synthesized graph produces byte-identical survivors."""
        sfc = ServiceFunctionChain([make_nf(t) for t in nf_types])
        packets = list(generator.packets(24))
        original = sfc.concatenated_graph()
        baseline = original.run_packets([p.clone() for p in packets])
        sfc.reset()
        fresh = ServiceFunctionChain([make_nf(t) for t in nf_types])
        synthesized, _report = synthesizer.synthesize(
            fresh.concatenated_graph()
        )
        optimized = synthesized.run_packets([p.clone() for p in packets])
        assert [p.to_bytes() for p in baseline] == \
            [p.to_bytes() for p in optimized]

    def test_report_summary_readable(self, synthesizer):
        sfc = ServiceFunctionChain([make_nf("probe"), make_nf("lb")])
        _graph, report = synthesizer.synthesize(sfc.concatenated_graph())
        assert "synthesis" in report.summary()
