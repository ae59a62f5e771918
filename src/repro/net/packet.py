"""Packet and header model.

Packets carry real, fully serializable protocol headers so that network
functions in :mod:`repro.nf` can be exercised functionally (a NAT really
rewrites addresses, an IPsec gateway really encrypts the payload, the
XOR merge of :mod:`repro.core.merge` really operates on wire bytes).

The model intentionally covers the subset of Ethernet/IPv4/IPv6/TCP/UDP
used by the paper's workloads; options and extension headers are out of
scope.
"""

from __future__ import annotations

import enum
import itertools
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD

IPPROTO_TCP = 6
IPPROTO_UDP = 17
IPPROTO_ESP = 50

_packet_ids = itertools.count()


class HeaderRegion(enum.Enum):
    """Packet regions an NF may read or write.

    The parallelization calculus of the paper (Tables II/III) reasons
    about *header* versus *payload* accesses; this enum names the two
    regions.
    """

    HEADER = "header"
    PAYLOAD = "payload"


def mac_to_bytes(mac: str) -> bytes:
    """Convert ``"aa:bb:cc:dd:ee:ff"`` to 6 raw bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"malformed MAC address: {mac!r}")
    return bytes(int(p, 16) for p in parts)


def bytes_to_mac(raw: bytes) -> str:
    """Convert 6 raw bytes to ``"aa:bb:cc:dd:ee:ff"``."""
    if len(raw) != 6:
        raise ValueError("MAC address must be exactly 6 bytes")
    return raw.hex(":")


def ipv4_to_int(addr: str) -> int:
    """Convert dotted-quad IPv4 text to a 32-bit integer."""
    parts = addr.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {addr!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {addr!r}")
        value = (value << 8) | octet
    return value


def int_to_ipv4(value: int) -> str:
    """Convert a 32-bit integer to dotted-quad IPv4 text."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError("IPv4 address out of range")
    return "%d.%d.%d.%d" % (value >> 24, (value >> 16) & 0xFF,
                            (value >> 8) & 0xFF, value & 0xFF)


@dataclass
class EthernetHeader:
    """Ethernet II frame header (14 bytes)."""

    dst_mac: str = "02:00:00:00:00:02"
    src_mac: str = "02:00:00:00:00:01"
    ethertype: int = ETHERTYPE_IPV4

    LENGTH = 14

    def to_bytes(self) -> bytes:
        return (
            mac_to_bytes(self.dst_mac)
            + mac_to_bytes(self.src_mac)
            + struct.pack("!H", self.ethertype)
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "EthernetHeader":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated Ethernet header")
        return cls(
            dst_mac=bytes_to_mac(raw[0:6]),
            src_mac=bytes_to_mac(raw[6:12]),
            ethertype=struct.unpack("!H", raw[12:14])[0],
        )

    def copy(self) -> "EthernetHeader":
        return EthernetHeader(self.dst_mac, self.src_mac, self.ethertype)


@dataclass
class IPv4Header:
    """IPv4 header without options (20 bytes)."""

    src: str = "10.0.0.1"
    dst: str = "10.0.0.2"
    protocol: int = IPPROTO_UDP
    ttl: int = 64
    tos: int = 0
    identification: int = 0
    total_length: int = 0  # filled by Packet.to_bytes when zero

    LENGTH = 20

    def to_bytes(self, payload_len: int = 0) -> bytes:
        total = self.total_length or (self.LENGTH + payload_len)
        header = struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | 5,  # version 4, IHL 5 words
            self.tos,
            total,
            self.identification,
            0,  # flags/fragment offset
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            struct.pack("!I", ipv4_to_int(self.src)),
            struct.pack("!I", ipv4_to_int(self.dst)),
        )
        checksum = internet_checksum(header)
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IPv4Header":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated IPv4 header")
        (ver_ihl, tos, total, ident, _flags, ttl, proto, _csum) = struct.unpack(
            "!BBHHHBBH", raw[:12]
        )
        if ver_ihl >> 4 != 4:
            raise ValueError("not an IPv4 header")
        src = struct.unpack("!I", raw[12:16])[0]
        dst = struct.unpack("!I", raw[16:20])[0]
        return cls(
            src=int_to_ipv4(src),
            dst=int_to_ipv4(dst),
            protocol=proto,
            ttl=ttl,
            tos=tos,
            identification=ident,
            total_length=total,
        )

    def copy(self) -> "IPv4Header":
        return IPv4Header(self.src, self.dst, self.protocol, self.ttl,
                          self.tos, self.identification, self.total_length)


@dataclass
class IPv6Header:
    """IPv6 fixed header (40 bytes).

    Addresses are stored as 128-bit integers; text formatting is not
    needed by any workload and is deliberately omitted.
    """

    src: int = 0x20010DB8000000000000000000000001
    dst: int = 0x20010DB8000000000000000000000002
    next_header: int = IPPROTO_UDP
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0
    payload_length: int = 0  # filled by Packet.to_bytes when zero

    LENGTH = 40

    def to_bytes(self, payload_len: int = 0) -> bytes:
        first_word = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        return struct.pack(
            "!IHBB",
            first_word,
            self.payload_length or payload_len,
            self.next_header,
            self.hop_limit,
        ) + self.src.to_bytes(16, "big") + self.dst.to_bytes(16, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "IPv6Header":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated IPv6 header")
        first_word, payload_len, nxt, hop = struct.unpack("!IHBB", raw[:8])
        if first_word >> 28 != 6:
            raise ValueError("not an IPv6 header")
        return cls(
            src=int.from_bytes(raw[8:24], "big"),
            dst=int.from_bytes(raw[24:40], "big"),
            next_header=nxt,
            hop_limit=hop,
            traffic_class=(first_word >> 20) & 0xFF,
            flow_label=first_word & 0xFFFFF,
            payload_length=payload_len,
        )

    def copy(self) -> "IPv6Header":
        return IPv6Header(self.src, self.dst, self.next_header,
                          self.hop_limit, self.traffic_class,
                          self.flow_label, self.payload_length)


@dataclass
class TCPHeader:
    """TCP header without options (20 bytes)."""

    src_port: int = 1234
    dst_port: int = 80
    seq: int = 0
    ack: int = 0
    flags: int = 0x18  # PSH|ACK
    window: int = 65535

    LENGTH = 20

    def to_bytes(self) -> bytes:
        return struct.pack(
            "!HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            5 << 4,  # data offset 5 words
            self.flags,
            self.window,
            0,  # checksum (unused in simulation)
            0,  # urgent pointer
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TCPHeader":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated TCP header")
        (sport, dport, seq, ack, _off, flags, window, _csum, _urg) = struct.unpack(
            "!HHIIBBHHH", raw[:20]
        )
        return cls(src_port=sport, dst_port=dport, seq=seq, ack=ack,
                   flags=flags, window=window)

    def copy(self) -> "TCPHeader":
        return TCPHeader(self.src_port, self.dst_port, self.seq, self.ack,
                         self.flags, self.window)


@dataclass
class UDPHeader:
    """UDP header (8 bytes)."""

    src_port: int = 1234
    dst_port: int = 53
    length: int = 0  # filled by Packet.to_bytes when zero

    LENGTH = 8

    def to_bytes(self, payload_len: int = 0) -> bytes:
        return struct.pack(
            "!HHHH",
            self.src_port,
            self.dst_port,
            self.length or (self.LENGTH + payload_len),
            0,  # checksum (unused in simulation)
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "UDPHeader":
        if len(raw) < cls.LENGTH:
            raise ValueError("truncated UDP header")
        sport, dport, length, _csum = struct.unpack("!HHHH", raw[:8])
        return cls(src_port=sport, dst_port=dport, length=length)

    def copy(self) -> "UDPHeader":
        return UDPHeader(self.src_port, self.dst_port, self.length)


def internet_checksum(data: bytes) -> int:
    """RFC 1071 16-bit one's-complement checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


L3Header = Union[IPv4Header, IPv6Header]
L4Header = Union[TCPHeader, UDPHeader]


@dataclass
class Packet:
    """A network packet with structured headers and a raw payload.

    Besides wire content, a packet carries simulation bookkeeping: a
    monotonically increasing ``uid``, the ``seqno`` within its traffic
    stream (used to detect reordering), ``arrival_time`` (seconds),
    and a Click-style ``annotations`` dict that elements may use to
    communicate (e.g. classification results).
    """

    eth: EthernetHeader = field(default_factory=EthernetHeader)
    ip: Optional[L3Header] = field(default_factory=IPv4Header)
    l4: Optional[L4Header] = field(default_factory=UDPHeader)
    payload: bytes = b""
    uid: int = field(default_factory=lambda: next(_packet_ids))
    seqno: int = 0
    arrival_time: float = 0.0
    annotations: Dict[str, object] = field(default_factory=dict)
    dropped: bool = False
    drop_reason: Optional[str] = None

    @property
    def wire_len(self) -> int:
        """Total frame length in bytes (headers + payload)."""
        length = self.eth.LENGTH + len(self.payload)
        if self.ip is not None:
            length += self.ip.LENGTH
        if self.l4 is not None:
            length += self.l4.LENGTH
        return length

    @property
    def is_ipv4(self) -> bool:
        return isinstance(self.ip, IPv4Header)

    @property
    def is_ipv6(self) -> bool:
        return isinstance(self.ip, IPv6Header)

    @property
    def is_tcp(self) -> bool:
        return isinstance(self.l4, TCPHeader)

    @property
    def is_udp(self) -> bool:
        return isinstance(self.l4, UDPHeader)

    def header_bytes(self) -> bytes:
        """Serialize all headers (the HEADER region)."""
        payload_len = len(self.payload)
        chunks = [self.eth.to_bytes()]
        l4_len = self.l4.LENGTH if self.l4 is not None else 0
        if self.ip is not None:
            chunks.append(self.ip.to_bytes(payload_len + l4_len))
        if self.l4 is not None:
            if isinstance(self.l4, UDPHeader):
                chunks.append(self.l4.to_bytes(payload_len))
            else:
                chunks.append(self.l4.to_bytes())
        return b"".join(chunks)

    def to_bytes(self) -> bytes:
        """Serialize the full frame (HEADER + PAYLOAD regions)."""
        return self.header_bytes() + self.payload

    @classmethod
    def from_bytes(cls, raw: bytes, **bookkeeping) -> "Packet":
        """Parse a frame serialized by :meth:`to_bytes`.

        ``bookkeeping`` keyword arguments (``uid``, ``seqno``, ...) are
        forwarded to the constructor so a re-parsed packet can keep the
        identity of the packet it came from.
        """
        eth = EthernetHeader.from_bytes(raw)
        offset = EthernetHeader.LENGTH
        ip: Optional[L3Header] = None
        l4: Optional[L4Header] = None
        proto: Optional[int] = None
        if eth.ethertype == ETHERTYPE_IPV4:
            ip = IPv4Header.from_bytes(raw[offset:])
            proto = ip.protocol
            offset += IPv4Header.LENGTH
        elif eth.ethertype == ETHERTYPE_IPV6:
            ip = IPv6Header.from_bytes(raw[offset:])
            proto = ip.next_header
            offset += IPv6Header.LENGTH
        if proto == IPPROTO_TCP:
            l4 = TCPHeader.from_bytes(raw[offset:])
            offset += TCPHeader.LENGTH
        elif proto == IPPROTO_UDP:
            l4 = UDPHeader.from_bytes(raw[offset:])
            offset += UDPHeader.LENGTH
        return cls(eth=eth, ip=ip, l4=l4, payload=raw[offset:], **bookkeeping)

    def clone(self) -> "Packet":
        """Deep-copy the packet, preserving uid/seqno identity.

        Used by the SFC orchestrator when duplicating traffic to
        parallel branches: the copies are the *same logical packet*,
        so they keep the same ``uid``.
        """
        return Packet(
            eth=self.eth.copy(),
            ip=self.ip.copy() if self.ip is not None else None,
            l4=self.l4.copy() if self.l4 is not None else None,
            payload=self.payload,
            uid=self.uid,
            seqno=self.seqno,
            arrival_time=self.arrival_time,
            annotations=dict(self.annotations),
            dropped=self.dropped,
            drop_reason=self.drop_reason,
        )

    def mark_dropped(self, reason: str) -> None:
        """Flag the packet as dropped (it stays in batches for accounting)."""
        self.dropped = True
        self.drop_reason = reason

    def five_tuple(self) -> Tuple[object, object, int, int, int]:
        """Return (src, dst, proto, sport, dport) for flow keying."""
        src: object = None
        dst: object = None
        proto = 0
        if isinstance(self.ip, IPv4Header):
            src, dst, proto = self.ip.src, self.ip.dst, self.ip.protocol
        elif isinstance(self.ip, IPv6Header):
            src, dst, proto = self.ip.src, self.ip.dst, self.ip.next_header
        sport = dport = 0
        if self.l4 is not None:
            sport, dport = self.l4.src_port, self.l4.dst_port
        return (src, dst, proto, sport, dport)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        l3 = "ipv4" if self.is_ipv4 else "ipv6" if self.is_ipv6 else "none"
        l4 = "tcp" if self.is_tcp else "udp" if self.is_udp else "none"
        return (
            f"Packet(uid={self.uid}, seq={self.seqno}, {l3}/{l4}, "
            f"len={self.wire_len}, dropped={self.dropped})"
        )
