"""Unit and property tests for the firewall and its matcher."""

import copy
import dataclasses
import random
from unittest import mock

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
    ipv4_to_int,
)
from repro.nf import firewall
from repro.nf.firewall import AclClassify, Firewall, TupleSpaceMatcher
from repro.traffic.acl import AclRule, generate_acl, linear_match
from repro.traffic.generator import TrafficGenerator, TrafficSpec

from builders import filled_tables, table_layout


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

    @pytest.mark.parametrize("first_use", ["match", "tuple_count"])
    def test_tables_filled_on_first_use(self, first_use):
        """Construction sorts the rules and builds no table; the first
        match or tuple count fills the tables, once."""
        matcher = TupleSpaceMatcher(generate_acl(50))
        tables = matcher._tables
        assert tables == {}
        if first_use == "match":
            matcher.match(packet_for("1.1.1.1", "2.2.2.2"))
        else:
            assert matcher.tuple_count > 0
        assert matcher._tables is tables
        layout = table_layout(tables)
        assert layout
        matcher.match(packet_for("3.3.3.3", "4.4.4.4"))
        assert table_layout(matcher._tables) == layout

    def test_a_clones_fill_is_the_originals(self):
        """A clone made before the fill shares the dict the fill
        builds: the tables are built once, for both."""
        matcher = TupleSpaceMatcher(generate_acl(50))
        clone = copy.deepcopy(matcher)
        assert clone is not matcher
        assert clone._tables is matcher._tables == {}
        packet = packet_for("1.1.1.1", "2.2.2.2")
        assert clone.match(packet) is matcher.match(packet) is not None
        assert clone._tables is matcher._tables
        assert len(matcher._tables) == clone.tuple_count > 0

    @staticmethod
    def counted_classifications(monkeypatch):
        """Every 5-tuple classified from scratch, in order."""
        classify = TupleSpaceMatcher._classify
        classified = []

        def counting(self, *fields):
            classified.append(fields)
            return classify(self, *fields)

        monkeypatch.setattr(TupleSpaceMatcher, "_classify", counting)
        return classified

    def test_a_flow_is_classified_once(self, monkeypatch):
        """A repeated 5-tuple, on the matcher or on a clone made
        before or after it was first seen, is answered from the one
        memo they share."""
        classified = self.counted_classifications(monkeypatch)
        matcher = TupleSpaceMatcher(generate_acl(50))
        early = copy.deepcopy(matcher)
        first = packet_for("1.1.1.1", "2.2.2.2")
        verdict = matcher.match(first)
        late = copy.deepcopy(matcher)
        assert early._verdicts is late._verdicts is matcher._verdicts
        for each in (matcher, early, late):
            assert each.match(first.clone()) is verdict is not None
        assert len(classified) == 1
        late.match(packet_for("1.1.1.1", "2.2.2.2", sport=1001))
        assert len(classified) == 2
        assert len(matcher._verdicts) == 2

    def test_non_ipv4_packets_skip_the_memo(self, monkeypatch):
        classified = self.counted_classifications(monkeypatch)
        matcher = TupleSpaceMatcher(generate_acl(50))
        packet = Packet(eth=EthernetHeader(ethertype=ETHERTYPE_IPV6),
                        ip=IPv6Header(), l4=UDPHeader())
        assert matcher.match(packet) is None
        assert matcher._verdicts == {}
        assert classified == []

    def test_a_full_memo_starts_over(self, monkeypatch):
        """At its bound the memo is cleared, and the next flows are
        classified afresh with the same verdicts."""
        monkeypatch.setattr(firewall, "_MEMO_LIMIT", 3)
        classified = self.counted_classifications(monkeypatch)
        rules = generate_acl(50, seed=2, deny_fraction=0.4)
        matcher = TupleSpaceMatcher(rules)
        packets = [packet_for("10.0.0.%d" % host, "10.1.0.1")
                   for host in range(5)]
        sizes = []
        for packet in packets + packets:
            assert matcher.match(packet) is linear_match(rules, packet)
            sizes.append(len(matcher._verdicts))
        assert sizes == [1, 2, 3, 1, 2, 3, 1, 2, 3, 1]
        assert len(classified) == 10


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


def rule_list(seed, catch_all, order):
    """60 generated rules, with or without the catch-all, in generated
    order, shuffled, or shuffled with every third priority tied."""
    rules = generate_acl(60, seed=seed, deny_fraction=0.4)
    if not catch_all:
        rules = rules[:-1]
    if order == "shuffled":
        random.Random(seed).shuffle(rules)
    elif order == "tied":
        rules = [dataclasses.replace(rule, priority=rule.priority // 3)
                 for rule in rules]
        random.Random(seed).shuffle(rules)
    return rules


def with_host_bits(rules, seed):
    """``rules`` with random bits set below each prefix length: the
    same prefixes, spelled with host bits."""
    rng = random.Random(seed)

    def noisy(prefix):
        base, length = prefix
        return base | rng.getrandbits(32 - length), length

    return [dataclasses.replace(rule, src_prefix=noisy(rule.src_prefix),
                                dst_prefix=noisy(rule.dst_prefix))
            for rule in rules]


@given(data=st.data(), seed=st.integers(min_value=0, max_value=20),
       catch_all=st.booleans(),
       order=st.sampled_from(["generated", "shuffled", "tied"]))
@settings(max_examples=150, deadline=None)
def test_matchers_agree(data, seed, catch_all, order):
    """Tuple-space search implements exactly first-match semantics in
    ascending priority, list position breaking ties, on rules in any
    order."""
    rules = rule_list(seed, catch_all, order)
    packet = data.draw(classified_packets(rules))
    assert TupleSpaceMatcher(rules).match(packet) is \
        linear_match(rules, packet)


@st.composite
def neighbours(draw, flows):
    """One of ``flows`` with one of its 5 classified fields drawn anew:
    a memo keyed on fewer fields would answer it with the other's
    verdict."""
    packet = draw(st.sampled_from(flows)).clone()
    if not packet.is_ipv4:
        return packet
    field = draw(st.sampled_from(("src", "dst", "proto", "sport", "dport")))
    if field in ("src", "dst"):
        setattr(packet.ip, field,
                int_to_ipv4(draw(st.integers(0, 0xFFFFFFFF))))
    elif field == "proto":
        packet.ip.protocol = draw(st.sampled_from(
            (IPPROTO_TCP, IPPROTO_UDP, IPPROTO_ESP)))
    elif packet.l4 is not None:
        setattr(packet.l4, "src_port" if field == "sport" else "dst_port",
                draw(st.integers(0, 65535)))
    return packet


@given(data=st.data(), seed=st.integers(min_value=0, max_value=20),
       catch_all=st.booleans(),
       order=st.sampled_from(["generated", "shuffled", "tied"]),
       host_bits=st.booleans(),
       limit=st.sampled_from([1, 2, 5, firewall._MEMO_LIMIT]))
@settings(max_examples=100, deadline=None)
def test_the_memo_keeps_first_match_semantics(data, seed, catch_all, order,
                                              host_bits, limit):
    """On a stream that repeats 5-tuples and their one-field
    neighbours, IPv6 and L4-less packets included, the matcher and a
    clone sharing its memo answer every packet with the reference's
    rule, before and after the memo fills to its bound and starts
    over."""
    rules = rule_list(seed, catch_all, order)
    if host_bits:
        rules = with_host_bits(rules, seed)
    flows = data.draw(st.lists(classified_packets(rules), min_size=1,
                               max_size=6))
    flows += data.draw(st.lists(neighbours(flows), max_size=6))
    stream = data.draw(st.lists(st.sampled_from(flows), min_size=1,
                                max_size=24))
    matcher = TupleSpaceMatcher(rules)
    clone = copy.deepcopy(matcher)
    assert clone._verdicts is matcher._verdicts
    with mock.patch.object(firewall, "_MEMO_LIMIT", limit):
        for index, packet in enumerate(stream):
            expected = linear_match(rules, packet)
            first, second = ((matcher, clone) if index % 2
                             else (clone, matcher))
            assert first.match(packet) is expected
            assert second.match(packet) is expected
            assert len(matcher._verdicts) <= limit


class TestOneMatchOrder:
    """The matcher classifies as the reference does: in ascending
    priority, list position breaking ties, whatever order the rules
    come in."""

    @staticmethod
    def first_packet():
        return next(TrafficGenerator(TrafficSpec()).packets(1))

    @staticmethod
    def rule(priority, action, dst_prefix=(0, 0), src_ports=(0, 65535)):
        return AclRule(priority=priority, src_prefix=(0, 0),
                       dst_prefix=dst_prefix, src_ports=src_ports,
                       dst_ports=(0, 65535), proto=None, action=action)

    def deny_dst_slash8(self, priority):
        """A deny rule on the first packet's destination /8."""
        dst = ipv4_to_int(self.first_packet().ip.dst)
        return self.rule(priority, "deny", dst_prefix=(dst & 0xFF000000, 8))

    def verdicts(self, rules):
        packet = self.first_packet()
        return [linear_match(rules, packet),
                TupleSpaceMatcher(rules).match(packet)]

    def test_rules_out_of_priority_order(self):
        deny, accept = self.deny_dst_slash8(9), self.rule(2, "accept")
        assert self.verdicts([deny, accept]) == [accept, accept]

    def test_tied_priorities_keep_list_order(self):
        """The catch-all shares its tuple with an earlier sport-1 rule,
        so the tuple-space table meets it before the tied deny."""
        sport_one = self.rule(1, "accept", src_ports=(1, 1))
        deny, accept = self.deny_dst_slash8(5), self.rule(5, "accept")
        reference, tuple_space = self.verdicts([sport_one, deny, accept])
        assert reference is deny
        assert tuple_space is deny

    def test_rules_from_an_iterator(self):
        rules = generate_acl(50, seed=3, deny_fraction=0.0)
        from_list = TupleSpaceMatcher(rules)
        from_iterator = TupleSpaceMatcher(iter(rules))
        assert from_iterator.tuple_count == from_list.tuple_count > 0
        packet = self.first_packet()
        assert from_iterator.match(packet) is from_list.match(packet) \
            is not None

    @pytest.mark.parametrize("tied", [False, True])
    def test_tables_are_built_in_match_order(self, tied):
        """A shuffled rule list builds the tables of its stably sorted
        copy: the same tuples, keys and candidates in the same order."""
        rules = generate_acl(200, seed=5, deny_fraction=0.3)
        if tied:
            rules = [dataclasses.replace(rule, priority=rule.priority // 3)
                     for rule in rules]
        random.Random(5).shuffle(rules)
        in_order = sorted(rules, key=lambda rule: rule.priority)
        assert table_layout(filled_tables(rules)) == \
            table_layout(filled_tables(in_order))


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
        """Two kinds: ``tuple_space`` and ``tree``."""
        for kind in ("magic", "linear"):
            with pytest.raises(ValueError, match="unknown matcher kind"):
                AclClassify(generate_acl(5), matcher_kind=kind)

    @pytest.mark.parametrize("matcher_kind", ["tuple_space", "tree"])
    def test_every_kind_holds_one_tuple_space_matcher(self, matcher_kind):
        """The kind is a price: every firewall classifies with a
        tuple-space matcher, and only pricing a tuple-space firewall
        fills its tables."""
        classify = AclClassify(generate_acl(50), matcher_kind=matcher_kind)
        assert type(classify.matcher) is TupleSpaceMatcher
        hints = classify.cost_hints()
        assert list(hints) == (["rules", "tree"] if matcher_kind == "tree"
                               else ["rules", "tuples"])
        assert bool(classify.matcher._tables) == (matcher_kind
                                                  == "tuple_space")

    def test_tree_matcher_cost_hints(self):
        classify = AclClassify(generate_acl(100), matcher_kind="tree")
        hints = classify.cost_hints()
        assert hints["tree"] == 1.0
        assert hints["rules"] == 100.0

    @pytest.mark.parametrize("matcher_kind", ["tuple_space", "tree"])
    def test_any_iterable_of_rules_prices_alike(self, matcher_kind):
        """The element counts its rules from the matcher's copy, so
        an iterator or a generator works as well as a list."""
        rules = generate_acl(50, seed=3, deny_fraction=0.0)
        hints = [AclClassify(given, matcher_kind=matcher_kind).cost_hints()
                 for given in (rules, iter(rules),
                               (rule for rule in rules))]
        assert hints[0]["rules"] == 50.0
        assert hints[1] == hints[0]
        assert hints[2] == hints[0]

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
        """Both kinds pass exactly the packets the reference accepts.
        Generated traffic falls to the catch-all rule, so one packet is
        also aimed at each rule's prefixes and lowest ports."""
        rules = generate_acl(80, seed=7, deny_fraction=0.5)
        packets = list(generator.packets(32)) + [
            packet_for(int_to_ipv4(rule.src_prefix[0]),
                       int_to_ipv4(rule.dst_prefix[0]),
                       rule.src_ports[0], rule.dst_ports[0])
            for rule in rules]
        for seqno, packet in enumerate(packets):
            packet.seqno = seqno
        accepted = sorted(packet.seqno for packet in packets
                          if linear_match(rules, packet).action == "accept")
        assert len(accepted) < len(packets)
        for kind in ("tuple_space", "tree"):
            firewall = Firewall(rules=rules, matcher_kind=kind,
                                drop_on_deny=True)
            out = firewall.process_packets([p.clone() for p in packets])
            assert sorted(p.seqno for p in out) == accepted, kind
