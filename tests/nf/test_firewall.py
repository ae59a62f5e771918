"""Unit and property tests for the firewall and its matchers."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.net.batch import PacketBatch
from repro.net.packet import (
    ETHERTYPE_IPV6,
    IPPROTO_ESP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    EthernetHeader,
    IPv4Header,
    IPv6Header,
    Packet,
    TCPHeader,
    UDPHeader,
    int_to_ipv4,
)
from repro.nf.firewall import (
    AclClassify,
    Firewall,
    LinearMatcher,
    TupleSpaceMatcher,
)
from repro.traffic.acl import generate_acl, linear_match


def packet_for(src, dst, sport=1000, dport=80):
    return Packet(
        ip=IPv4Header(src=src, dst=dst),
        l4=UDPHeader(src_port=sport, dst_port=dport),
    )


class TestTupleSpaceMatcher:
    def test_tuple_count_bounded_by_distinct_length_pairs(self):
        rules = generate_acl(500, seed=1)
        matcher = TupleSpaceMatcher(rules)
        distinct = {(r.src_prefix[1], r.dst_prefix[1]) for r in rules}
        assert matcher.tuple_count == len(distinct)

    def test_matches_catch_all(self):
        rules = generate_acl(10)
        matcher = TupleSpaceMatcher(rules)
        assert matcher.match(packet_for("1.2.3.4", "5.6.7.8")) is not None

    def test_probe_counter(self):
        matcher = TupleSpaceMatcher(generate_acl(50))
        before = matcher.probes
        matcher.match(packet_for("1.1.1.1", "2.2.2.2"))
        assert matcher.probes == before + matcher.tuple_count


def addresses_in(prefix):
    base, length = prefix
    return st.integers(0, (1 << (32 - length)) - 1).map(
        lambda host: base | host)


@st.composite
def classified_packets(draw, rules):
    """Packets aimed at one rule, every field inside it or only some:
    addresses in its prefixes, ports in its ranges, its protocol; TCP,
    UDP or ESP, with or without an L4 header; sometimes IPv6."""
    rule = draw(st.sampled_from(rules))
    if draw(st.integers(0, 9)) == 0:
        return Packet(eth=EthernetHeader(ethertype=ETHERTYPE_IPV6),
                      ip=IPv6Header(src=draw(st.integers(0, 2**128 - 1)),
                                    dst=draw(st.integers(0, 2**128 - 1))),
                      l4=UDPHeader(src_port=80, dst_port=80))
    aimed = draw(st.booleans())

    def pick(inside, anywhere):
        return draw(inside if aimed or draw(st.booleans()) else anywhere)

    protocols = st.sampled_from((IPPROTO_TCP, IPPROTO_UDP, IPPROTO_ESP))
    address, port = st.integers(0, 0xFFFFFFFF), st.integers(0, 65535)
    src = pick(addresses_in(rule.src_prefix), address)
    dst = pick(addresses_in(rule.dst_prefix), address)
    sport = pick(st.integers(*rule.src_ports), port)
    dport = pick(st.integers(*rule.dst_ports), port)
    proto = pick(protocols if rule.proto is None else st.just(rule.proto),
                 protocols)
    l4 = None
    if proto != IPPROTO_ESP and (aimed or draw(st.booleans())):
        header = TCPHeader if proto == IPPROTO_TCP else UDPHeader
        l4 = header(src_port=sport, dst_port=dport)
    return Packet(ip=IPv4Header(src=int_to_ipv4(src), dst=int_to_ipv4(dst),
                                protocol=proto),
                  l4=l4)


@given(data=st.data(), seed=st.integers(min_value=0, max_value=20),
       catch_all=st.booleans())
@settings(max_examples=150, deadline=None)
def test_matchers_agree(data, seed, catch_all):
    """Tuple-space search implements exactly first-match semantics,
    and both matchers count exactly the probes they make."""
    rules = generate_acl(60, seed=seed, deny_fraction=0.4)
    if not catch_all:
        rules = rules[:-1]
    packet = data.draw(classified_packets(rules))
    reference = linear_match(rules, packet)
    linear, tuple_space = LinearMatcher(rules), TupleSpaceMatcher(rules)
    assert linear.match(packet) is reference
    assert tuple_space.match(packet) is reference
    # Linear probes up to the first match (every rule when none
    # matches); tuple-space probes every tuple of an IPv4 packet and
    # returns before probing anything else.
    assert linear.probes == (rules.index(reference) + 1
                             if reference is not None else len(rules))
    assert tuple_space.probes == (tuple_space.tuple_count
                                  if packet.is_ipv4 else 0)


class TestAclClassify:
    def test_accept_goes_to_port_0(self):
        rules = generate_acl(20, deny_fraction=0.0)
        classify = AclClassify(rules)
        out = classify.push(PacketBatch([packet_for("1.1.1.1", "2.2.2.2")]))
        assert len(out[0]) == 1

    def test_deny_goes_to_port_1_when_not_dropping(self):
        from repro.traffic.acl import AclRule
        deny_all = [AclRule(priority=0, src_prefix=(0, 0),
                            dst_prefix=(0, 0), src_ports=(0, 65535),
                            dst_ports=(0, 65535), proto=None,
                            action="deny")]
        classify = AclClassify(deny_all, drop_on_deny=False)
        out = classify.push(PacketBatch([packet_for("1.1.1.1", "2.2.2.2")]))
        assert len(out[0]) == 0
        assert len(out[1]) == 1
        assert classify.deny_count == 1

    def test_deny_drops_when_configured(self):
        from repro.traffic.acl import AclRule
        deny_all = [AclRule(priority=0, src_prefix=(0, 0),
                            dst_prefix=(0, 0), src_ports=(0, 65535),
                            dst_ports=(0, 65535), proto=None,
                            action="deny")]
        classify = AclClassify(deny_all, drop_on_deny=True)
        packet = packet_for("1.1.1.1", "2.2.2.2")
        classify.push(PacketBatch([packet]))
        assert packet.dropped

    def test_unknown_matcher_rejected(self):
        with pytest.raises(ValueError):
            AclClassify(generate_acl(5), matcher_kind="magic")

    def test_tree_matcher_cost_hints(self):
        classify = AclClassify(generate_acl(100), matcher_kind="tree")
        hints = classify.cost_hints()
        assert hints["tree"] == 1.0
        assert hints["rules"] == 100.0

    def test_rule_annotation_recorded(self):
        classify = AclClassify(generate_acl(10, deny_fraction=0.0))
        packet = packet_for("1.1.1.1", "2.2.2.2")
        classify.push(PacketBatch([packet]))
        assert "fw_rule" in packet.annotations


class TestFirewallNF:
    def test_table_ii_profile_never_drops(self, generator):
        firewall = Firewall()  # default: no drops, per Table II
        packets = list(generator.packets(32))
        out = firewall.process_packets(packets)
        assert len(out) == 32

    def test_drop_on_deny_firewall_drops_some(self):
        from repro.traffic.acl import AclRule
        rules = [
            AclRule(priority=0, src_prefix=(0, 0), dst_prefix=(0, 0),
                    src_ports=(0, 65535), dst_ports=(53, 53), proto=None,
                    action="deny"),
            AclRule(priority=1, src_prefix=(0, 0), dst_prefix=(0, 0),
                    src_ports=(0, 65535), dst_ports=(0, 65535), proto=None,
                    action="accept"),
        ]
        firewall = Firewall(rules=rules, drop_on_deny=True)
        from repro.traffic.generator import TrafficGenerator, TrafficSpec
        gen = TrafficGenerator(TrafficSpec(seed=9))
        packets = list(gen.packets(64))
        dns = sum(1 for p in packets if p.l4.dst_port == 53)
        assert 0 < dns < 64  # the seed produces a mix
        out = firewall.process_packets(packets)
        assert len(out) == 64 - dns

    def test_matcher_kinds_agree_end_to_end(self, generator):
        rules = generate_acl(80, seed=7, deny_fraction=0.5)
        packets = list(generator.packets(32))
        by_kind = {}
        for kind in ("linear", "tuple_space", "tree"):
            firewall = Firewall(rules=rules, matcher_kind=kind,
                                drop_on_deny=True)
            out = firewall.process_packets([p.clone() for p in packets])
            by_kind[kind] = sorted(p.seqno for p in out)
        assert by_kind["linear"] == by_kind["tuple_space"] == by_kind["tree"]
