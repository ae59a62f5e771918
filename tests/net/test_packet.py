"""Unit tests for packet and header serialization."""

import dataclasses
import random

import pytest

from repro.net.packet import (
    ETHERTYPE_IPV6,
    EthernetHeader,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4Header,
    IPv6Header,
    Packet,
    TCPHeader,
    UDPHeader,
    bytes_to_mac,
    int_to_ipv4,
    internet_checksum,
    ipv4_to_int,
    mac_to_bytes,
)


class TestAddressConversions:
    def test_mac_roundtrip(self):
        mac = "de:ad:be:ef:00:01"
        assert bytes_to_mac(mac_to_bytes(mac)) == mac

    def test_mac_to_bytes_length(self):
        assert len(mac_to_bytes("00:11:22:33:44:55")) == 6

    def test_malformed_mac_rejected(self):
        with pytest.raises(ValueError):
            mac_to_bytes("00:11:22:33:44")

    def test_bytes_to_mac_wrong_length(self):
        with pytest.raises(ValueError):
            bytes_to_mac(b"\x00" * 5)

    def test_ipv4_roundtrip(self):
        assert int_to_ipv4(ipv4_to_int("192.168.1.254")) == "192.168.1.254"

    def test_ipv4_to_int_known_value(self):
        assert ipv4_to_int("10.0.0.1") == 0x0A000001

    def test_ipv4_bounds(self):
        assert ipv4_to_int("0.0.0.0") == 0
        assert ipv4_to_int("255.255.255.255") == 0xFFFFFFFF

    def test_malformed_ipv4_rejected(self):
        with pytest.raises(ValueError):
            ipv4_to_int("1.2.3")
        with pytest.raises(ValueError):
            ipv4_to_int("1.2.3.400")

    def test_int_to_ipv4_out_of_range(self):
        with pytest.raises(ValueError):
            int_to_ipv4(1 << 32)


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example from RFC 1071 section 3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_checksum_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_checksum_of_zeros(self):
        assert internet_checksum(bytes(10)) == 0xFFFF


class TestHeaderRoundtrips:
    def test_ethernet_roundtrip(self):
        header = EthernetHeader(dst_mac="02:00:00:00:00:09",
                                src_mac="02:00:00:00:00:08",
                                ethertype=ETHERTYPE_IPV6)
        assert EthernetHeader.from_bytes(header.to_bytes()) == header

    def test_ethernet_truncated(self):
        with pytest.raises(ValueError):
            EthernetHeader.from_bytes(b"\x00" * 10)

    def test_ipv4_roundtrip(self):
        header = IPv4Header(src="1.2.3.4", dst="5.6.7.8",
                            protocol=IPPROTO_TCP, ttl=17, tos=3,
                            identification=777)
        parsed = IPv4Header.from_bytes(header.to_bytes(payload_len=100))
        assert parsed.src == "1.2.3.4"
        assert parsed.dst == "5.6.7.8"
        assert parsed.protocol == IPPROTO_TCP
        assert parsed.ttl == 17
        assert parsed.tos == 3
        assert parsed.identification == 777
        assert parsed.total_length == IPv4Header.LENGTH + 100

    def test_ipv4_rejects_ipv6_bytes(self):
        v6 = IPv6Header()
        with pytest.raises(ValueError):
            IPv4Header.from_bytes(v6.to_bytes())

    def test_ipv4_checksum_valid(self):
        raw = IPv4Header(src="9.9.9.9", dst="8.8.8.8").to_bytes(10)
        assert internet_checksum(raw) == 0

    def test_ipv6_roundtrip(self):
        header = IPv6Header(src=1 << 120, dst=(1 << 127) | 5,
                            next_header=IPPROTO_UDP, hop_limit=3,
                            traffic_class=7, flow_label=0xABCDE)
        parsed = IPv6Header.from_bytes(header.to_bytes(payload_len=64))
        assert parsed.src == header.src
        assert parsed.dst == header.dst
        assert parsed.hop_limit == 3
        assert parsed.traffic_class == 7
        assert parsed.flow_label == 0xABCDE
        assert parsed.payload_length == 64

    def test_tcp_roundtrip(self):
        header = TCPHeader(src_port=4242, dst_port=443, seq=12345,
                           ack=678, flags=0x12, window=1024)
        parsed = TCPHeader.from_bytes(header.to_bytes())
        assert parsed == header

    def test_udp_roundtrip(self):
        header = UDPHeader(src_port=1000, dst_port=53)
        parsed = UDPHeader.from_bytes(header.to_bytes(payload_len=20))
        assert parsed.src_port == 1000
        assert parsed.dst_port == 53
        assert parsed.length == UDPHeader.LENGTH + 20


class TestPacket:
    def test_wire_len_counts_all_layers(self):
        packet = Packet(payload=b"x" * 10)
        expected = (EthernetHeader.LENGTH + IPv4Header.LENGTH
                    + UDPHeader.LENGTH + 10)
        assert packet.wire_len == expected

    def test_full_roundtrip_ipv4_udp(self):
        packet = Packet(payload=b"hello world")
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.payload == b"hello world"
        assert parsed.ip.src == packet.ip.src
        assert parsed.l4.dst_port == packet.l4.dst_port

    def test_full_roundtrip_ipv6_tcp(self):
        packet = Packet(
            eth=EthernetHeader(ethertype=ETHERTYPE_IPV6),
            ip=IPv6Header(next_header=IPPROTO_TCP),
            l4=TCPHeader(seq=99),
            payload=b"abc",
        )
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.is_ipv6
        assert parsed.is_tcp
        assert parsed.l4.seq == 99
        assert parsed.payload == b"abc"

    def test_from_bytes_preserves_bookkeeping(self):
        packet = Packet(payload=b"x", seqno=7)
        parsed = Packet.from_bytes(packet.to_bytes(), uid=packet.uid,
                                   seqno=packet.seqno)
        assert parsed.uid == packet.uid
        assert parsed.seqno == 7

    def test_clone_preserves_identity_but_not_aliasing(self):
        packet = Packet(payload=b"x", seqno=3)
        packet.annotations["k"] = "v"
        clone = packet.clone()
        assert clone.uid == packet.uid
        assert clone.seqno == 3
        assert clone.annotations == {"k": "v"}
        clone.ip.ttl -= 1
        assert clone.ip.ttl != packet.ip.ttl
        clone.annotations["k2"] = 1
        assert "k2" not in packet.annotations

    def test_uids_are_unique(self):
        assert Packet().uid != Packet().uid

    def test_mark_dropped(self):
        packet = Packet()
        packet.mark_dropped("test")
        assert packet.dropped
        assert packet.drop_reason == "test"

    def test_five_tuple_udp(self):
        packet = Packet(
            ip=IPv4Header(src="1.1.1.1", dst="2.2.2.2",
                          protocol=IPPROTO_UDP),
            l4=UDPHeader(src_port=5, dst_port=6),
        )
        assert packet.five_tuple() == ("1.1.1.1", "2.2.2.2",
                                       IPPROTO_UDP, 5, 6)

    def test_header_bytes_excludes_payload(self):
        packet = Packet(payload=b"PAYLOAD")
        assert packet.to_bytes() == packet.header_bytes() + b"PAYLOAD"


HEADER_CLASSES = (EthernetHeader, IPv4Header, IPv6Header, TCPHeader,
                  UDPHeader)


def non_default(cls, salt: int = 0):
    """An instance of ``cls`` with every field off its default, each
    to a different value."""
    values = {}
    for index, f in enumerate(dataclasses.fields(cls)):
        default = f.default
        if isinstance(default, str):
            values[f.name] = f"{default}-{index}-{salt}"
        else:
            values[f.name] = default + 1000 + index + salt
    return cls(**values)


class TestCopies:
    @pytest.mark.parametrize("cls", HEADER_CLASSES,
                             ids=[c.__name__ for c in HEADER_CLASSES])
    def test_header_copy_keeps_every_field(self, cls):
        """``copy()`` calls the constructor with each field; a field
        it leaves out falls back to its default and fails here."""
        header = non_default(cls)
        copy = header.copy()
        assert type(copy) is cls
        assert copy == header
        assert copy is not header
        other = non_default(cls, salt=1)
        for f in dataclasses.fields(cls):
            setattr(copy, f.name, getattr(other, f.name))
        assert header == non_default(cls)
        assert copy == other

    def test_clone_keeps_every_field(self):
        packet = Packet(eth=non_default(EthernetHeader),
                        ip=non_default(IPv6Header),
                        l4=non_default(TCPHeader), payload=b"body",
                        uid=12345, seqno=7, arrival_time=0.5,
                        annotations={"a": 1, "b": 2}, dropped=True,
                        drop_reason="why")
        clone = packet.clone()
        assert clone == packet
        assert [getattr(clone, f.name) for f in dataclasses.fields(Packet)] \
            == [getattr(packet, f.name) for f in dataclasses.fields(Packet)]
        assert list(clone.annotations) == ["a", "b"]
        for name in ("eth", "ip", "l4", "annotations"):
            assert getattr(clone, name) is not getattr(packet, name)


class TestTextFormats:
    """The parser's MAC and IPv4 text, against the per-byte joins it
    used to build."""

    def test_bytes_to_mac_matches_the_byte_join(self):
        rng = random.Random(0)
        for raw in [bytes(6), b"\xff" * 6] + [rng.randbytes(6)
                                               for _ in range(500)]:
            assert bytes_to_mac(raw) == ":".join(f"{b:02x}" for b in raw)

    def test_int_to_ipv4_matches_the_octet_join(self):
        rng = random.Random(1)
        for value in [0, 0xFFFFFFFF] + [rng.getrandbits(32)
                                        for _ in range(500)]:
            assert int_to_ipv4(value) == ".".join(
                str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))
