"""Property-based tests for the packet substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.batch import PacketBatch
from repro.net.packet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    EthernetHeader,
    IPPROTO_TCP,
    IPPROTO_UDP,
    IPv4Header,
    IPv6Header,
    Packet,
    TCPHeader,
    UDPHeader,
    int_to_ipv4,
    internet_checksum,
)

ipv4_addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(
    int_to_ipv4
)
ports = st.integers(min_value=0, max_value=65535)
payloads = st.binary(max_size=256)


@st.composite
def packets(draw):
    version = draw(st.sampled_from([4, 6]))
    proto = draw(st.sampled_from([IPPROTO_TCP, IPPROTO_UDP]))
    if version == 4:
        ip = IPv4Header(
            src=draw(ipv4_addresses), dst=draw(ipv4_addresses),
            protocol=proto,
            ttl=draw(st.integers(min_value=1, max_value=255)),
        )
        ethertype = ETHERTYPE_IPV4
    else:
        ip = IPv6Header(
            src=draw(st.integers(min_value=0, max_value=(1 << 128) - 1)),
            dst=draw(st.integers(min_value=0, max_value=(1 << 128) - 1)),
            next_header=proto,
        )
        ethertype = ETHERTYPE_IPV6
    if proto == IPPROTO_TCP:
        l4 = TCPHeader(src_port=draw(ports), dst_port=draw(ports),
                       seq=draw(st.integers(0, 0xFFFFFFFF)))
    else:
        l4 = UDPHeader(src_port=draw(ports), dst_port=draw(ports))
    return Packet(eth=EthernetHeader(ethertype=ethertype), ip=ip, l4=l4,
                  payload=draw(payloads))


@given(packets())
@settings(max_examples=200)
def test_serialize_parse_roundtrip(packet):
    parsed = Packet.from_bytes(packet.to_bytes())
    assert parsed.payload == packet.payload
    assert parsed.ip.src == packet.ip.src
    assert parsed.ip.dst == packet.ip.dst
    assert parsed.l4.src_port == packet.l4.src_port
    assert parsed.l4.dst_port == packet.l4.dst_port
    # Re-serializing the parse must be byte-identical (canonical form).
    assert parsed.to_bytes() == packet.to_bytes()


@given(packets())
def test_clone_is_deep_and_byte_identical(packet):
    clone = packet.clone()
    assert clone.to_bytes() == packet.to_bytes()
    clone.payload = b"mutated!"
    assert packet.payload != b"mutated!" or packet.payload == b"mutated!"
    clone.eth.src_mac = "02:aa:aa:aa:aa:aa"
    assert packet.eth.src_mac != clone.eth.src_mac


@given(st.binary(min_size=0, max_size=64))
def test_ipv4_header_checksum_validates(payload):
    raw = IPv4Header(src="1.2.3.4", dst="4.3.2.1").to_bytes(len(payload))
    assert internet_checksum(raw) == 0


@given(st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=0, max_size=64, unique=True))
def test_split_merge_is_identity(seqnos):
    batch = PacketBatch([Packet(seqno=s) for s in sorted(seqnos)])
    original = [p.uid for p in batch]
    result = batch.split_by(lambda p: p.seqno % 3)
    merged = PacketBatch.merge(result.values())
    assert [p.seqno for p in merged] == sorted(seqnos)
    assert sorted(p.uid for p in merged) == sorted(original)
