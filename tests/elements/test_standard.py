"""Unit tests for the standard element library."""

import pytest

from repro.elements.standard import (
    CheckIPHeader,
    Classifier,
    Counter,
    DecIPTTL,
    Discard,
    EtherEncap,
    FromDevice,
    HashSwitch,
    Paint,
    PaintSwitch,
    Queue,
    StripEther,
    Tee,
    ToDevice,
)
from repro.net.batch import PacketBatch
from repro.net.packet import IPv4Header, IPv6Header, Packet, \
    EthernetHeader, ETHERTYPE_IPV6


def batch_of(n):
    return PacketBatch([Packet(seqno=i) for i in range(n)])


class TestIO:
    def test_from_device_passthrough(self):
        out = FromDevice().push(batch_of(3))
        assert len(out[0]) == 3

    def test_to_device_passthrough(self):
        out = ToDevice().push(batch_of(3))
        assert len(out[0]) == 3

    def test_io_signatures_by_device(self):
        assert FromDevice("eth0").signature() == FromDevice("eth0").signature()
        assert FromDevice("eth0").signature() != FromDevice("eth1").signature()

    def test_discard_drops_all(self):
        discard = Discard()
        out = discard.push(batch_of(4))
        assert len(out[0].live_packets) == 0
        assert discard.packets_dropped == 4


class TestCheckIPHeader:
    def test_valid_packets_pass(self):
        out = CheckIPHeader().push(batch_of(3))
        assert len(out[0]) == 3

    def test_missing_ip_dropped(self):
        packet = Packet(ip=None, l4=None)
        out = CheckIPHeader().push(PacketBatch([packet]))
        assert len(out[0].live_packets) == 0
        assert packet.dropped

    def test_expired_ttl_dropped(self):
        packet = Packet(ip=IPv4Header(ttl=0))
        out = CheckIPHeader().push(PacketBatch([packet]))
        assert len(out[0].live_packets) == 0

    def test_signature_shared(self):
        assert CheckIPHeader().signature() == CheckIPHeader().signature()

    def test_idempotent_flag(self):
        assert CheckIPHeader().idempotent


class TestClassifiers:
    def test_classifier_default_port_is_last(self):
        classify = Classifier(rules=[lambda p: False])
        assert classify.classify(Packet()) == 1

    def test_classifier_first_match_wins(self):
        classify = Classifier(rules=[lambda p: True, lambda p: True])
        assert classify.classify(Packet()) == 0

    def test_classifier_signature_with_rule_key(self):
        a = Classifier(rules=[], rule_key="acl-1")
        b = Classifier(rules=[], rule_key="acl-1")
        assert a.signature() == b.signature()

    def test_classifier_signature_without_rule_key_unique(self):
        assert Classifier(rules=[]).signature() != \
            Classifier(rules=[]).signature()

    def test_hash_switch_consistent_per_flow(self):
        switch = HashSwitch(fanout=4)
        packet = Packet()
        result = switch.push(PacketBatch([packet.clone(), packet.clone()]))
        ports = [port for port, sub in result.items() if len(sub)]
        assert len(ports) == 1  # same flow -> same port

    def test_hash_switch_fanout_validation(self):
        with pytest.raises(ValueError):
            HashSwitch(fanout=0)

    def test_paint_and_paint_switch(self):
        paint = Paint(colour=1)
        switch = PaintSwitch(fanout=2)
        batch = batch_of(3)
        painted = paint.push(batch)[0]
        result = switch.push(painted)
        assert len(result[1]) == 3

    def test_paint_signature_by_colour(self):
        assert Paint(1).signature() == Paint(1).signature()
        assert Paint(1).signature() != Paint(2).signature()


class TestModifiers:
    def test_dec_ttl_ipv4(self):
        packet = Packet(ip=IPv4Header(ttl=10))
        DecIPTTL().push(PacketBatch([packet]))
        assert packet.ip.ttl == 9

    def test_dec_ttl_expiry_drops(self):
        packet = Packet(ip=IPv4Header(ttl=1))
        out = DecIPTTL().push(PacketBatch([packet]))
        assert packet.dropped
        assert len(out[0].live_packets) == 0

    def test_dec_hop_limit_ipv6(self):
        packet = Packet(eth=EthernetHeader(ethertype=ETHERTYPE_IPV6),
                        ip=IPv6Header(hop_limit=5), l4=None)
        DecIPTTL().push(PacketBatch([packet]))
        assert packet.ip.hop_limit == 4

    def test_strip_and_encap(self):
        packet = Packet()
        StripEther().push(PacketBatch([packet]))
        assert packet.annotations.get("ether_stripped")
        EtherEncap(src_mac="02:00:00:00:00:11").push(PacketBatch([packet]))
        assert packet.eth.src_mac == "02:00:00:00:00:11"
        assert "ether_stripped" not in packet.annotations


class TestObserversAndShapers:
    def test_counter_counts(self):
        counter = Counter()
        counter.push(batch_of(5))
        counter.push(batch_of(2))
        assert counter.count == 7
        assert counter.byte_count > 0

    def test_counter_is_transparent(self):
        out = Counter().push(batch_of(4))
        assert len(out[0]) == 4

    def test_queue_passthrough_under_capacity(self):
        out = Queue(capacity=10).push(batch_of(5))
        assert len(out[0]) == 5

    def test_queue_overflow_drops_tail(self):
        queue = Queue(capacity=3)
        out = queue.push(batch_of(5))
        assert len(out[0]) == 3
        assert queue.overflow_drops == 2

    def test_tee_fanout_validation(self):
        with pytest.raises(ValueError):
            Tee(fanout=1)

    def test_tee_outputs_clones(self):
        tee = Tee(fanout=3)
        out = tee.push(batch_of(2))
        assert set(out) == {0, 1, 2}
        assert all(len(b) == 2 for b in out.values())
        uids = {p.uid for b in out.values() for p in b}
        assert len(uids) == 2  # clones share uids
