"""Unit and property tests for ACL generation and matching."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.net.packet import IPv4Header, Packet, UDPHeader, int_to_ipv4
from repro.traffic.acl import (
    AclRule,
    generate_acl,
    linear_match,
)


def packet_for(src="10.0.0.1", dst="192.168.0.1", sport=1000, dport=80,
               proto=17):
    return Packet(
        ip=IPv4Header(src=src, dst=dst, protocol=proto),
        l4=UDPHeader(src_port=sport, dst_port=dport),
    )


class TestGeneration:
    def test_rule_count(self):
        assert len(generate_acl(50)) == 50

    def test_minimum_one_rule(self):
        with pytest.raises(ValueError):
            generate_acl(0)

    def test_deterministic(self):
        assert generate_acl(30, seed=5) == generate_acl(30, seed=5)

    def test_last_rule_is_catch_all_accept(self):
        rules = generate_acl(20)
        last = rules[-1]
        assert last.src_prefix == (0, 0)
        assert last.dst_prefix == (0, 0)
        assert last.proto is None
        assert last.action == "accept"

    def test_priorities_sequential(self):
        rules = generate_acl(10)
        assert [r.priority for r in rules] == list(range(10))

    def test_deny_fraction_zero_means_all_accept(self):
        rules = generate_acl(100, deny_fraction=0.0)
        assert all(r.action == "accept" for r in rules)

    def test_deny_fraction_produces_denies(self):
        rules = generate_acl(200, deny_fraction=0.5)
        denies = sum(1 for r in rules if r.action == "deny")
        assert 50 < denies < 150


class TestMatching:
    def test_every_packet_matches_something(self):
        rules = generate_acl(50)
        for sport in range(1, 30):
            assert linear_match(rules, packet_for(sport=sport)) is not None

    def test_prefix_semantics(self):
        rule = AclRule(
            priority=0,
            src_prefix=(0x0A000000, 8),  # 10.0.0.0/8
            dst_prefix=(0, 0),
            src_ports=(0, 65535),
            dst_ports=(0, 65535),
            proto=None,
        )
        assert rule.matches(packet_for(src="10.99.1.2"))
        assert not rule.matches(packet_for(src="11.0.0.1"))

    def test_exact_host_prefix(self):
        rule = AclRule(
            priority=0,
            src_prefix=(0x0A000001, 32),
            dst_prefix=(0, 0),
            src_ports=(0, 65535),
            dst_ports=(0, 65535),
            proto=None,
        )
        assert rule.matches(packet_for(src="10.0.0.1"))
        assert not rule.matches(packet_for(src="10.0.0.2"))

    def test_port_range(self):
        rule = AclRule(
            priority=0,
            src_prefix=(0, 0), dst_prefix=(0, 0),
            src_ports=(0, 65535), dst_ports=(80, 90),
            proto=None,
        )
        assert rule.matches(packet_for(dport=85))
        assert not rule.matches(packet_for(dport=91))

    def test_protocol_constraint(self):
        rule = AclRule(
            priority=0,
            src_prefix=(0, 0), dst_prefix=(0, 0),
            src_ports=(0, 65535), dst_ports=(0, 65535),
            proto=6,  # TCP only
        )
        assert not rule.matches(packet_for(proto=17))

    def test_first_match_priority(self):
        rules = [
            AclRule(priority=0, src_prefix=(0, 0), dst_prefix=(0, 0),
                    src_ports=(0, 65535), dst_ports=(80, 80), proto=None,
                    action="deny"),
            AclRule(priority=1, src_prefix=(0, 0), dst_prefix=(0, 0),
                    src_ports=(0, 65535), dst_ports=(0, 65535), proto=None,
                    action="accept"),
        ]
        assert linear_match(rules, packet_for(dport=80)).action == "deny"
        assert linear_match(rules, packet_for(dport=81)).action == "accept"

    def test_missing_l4_header_reads_as_port_zero(self):
        def rule_for(ports):
            return AclRule(priority=0, src_prefix=(0, 0),
                           dst_prefix=(0, 0), src_ports=ports,
                           dst_ports=ports, proto=None)
        bare = Packet(ip=IPv4Header(protocol=50), l4=None)
        assert rule_for((0, 0)).matches(bare)
        assert not rule_for((1, 65535)).matches(bare)

    def test_non_ipv4_never_matches(self):
        from repro.net.packet import ETHERTYPE_IPV6, EthernetHeader, \
            IPv6Header
        rule = generate_acl(5)[-1]
        v6 = Packet(eth=EthernetHeader(ethertype=ETHERTYPE_IPV6),
                    ip=IPv6Header(), l4=UDPHeader())
        assert not rule.matches(v6)


@given(
    src=st.integers(min_value=0, max_value=0xFFFFFFFF),
    dst=st.integers(min_value=0, max_value=0xFFFFFFFF),
    sport=st.integers(min_value=0, max_value=65535),
    dport=st.integers(min_value=0, max_value=65535),
)
@settings(max_examples=100)
def test_generated_acl_is_total(src, dst, sport, dport):
    """The catch-all guarantees every IPv4 packet matches some rule."""
    rules = generate_acl(40, seed=13)
    packet = packet_for(src=int_to_ipv4(src), dst=int_to_ipv4(dst),
                        sport=sport, dport=dport)
    assert linear_match(rules, packet) is not None
