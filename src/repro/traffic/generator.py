"""Seeded packet/traffic generation.

:class:`TrafficGenerator` plays the role of the paper's packet
generator machines: it offers a configurable load (Gbps), packet-size
law, protocol (UDP default, TCP for the Fig. 14 experiments), IP
version, flow population, and payload synthesis hook (used by the DPI
match-profile experiments).  Everything is derived from one seed so
experiments are exactly reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterator, List, Optional

from repro.net.batch import PacketBatch
from repro.traffic.arrivals import CONSTANT_RATE, ArrivalProcess
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
)
from repro.traffic.distributions import FixedSize, SizeDistribution
from repro.traffic.dpi_profiles import MatchProfile
from repro.traffic.rng import _below

#: Ethernet preamble + IFG + FCS overhead per frame on the wire, bytes.
WIRE_OVERHEAD_BYTES = 24

_HEADER_LEN_V4_UDP = EthernetHeader.LENGTH + IPv4Header.LENGTH + UDPHeader.LENGTH
_HEADER_LEN_V4_TCP = EthernetHeader.LENGTH + IPv4Header.LENGTH + TCPHeader.LENGTH
_HEADER_LEN_V6_UDP = EthernetHeader.LENGTH + IPv6Header.LENGTH + UDPHeader.LENGTH
_HEADER_LEN_V6_TCP = EthernetHeader.LENGTH + IPv6Header.LENGTH + TCPHeader.LENGTH

#: The destination ports flows draw from.
_FLOW_DPORTS = (53, 80, 443, 8080, 5001)


@dataclass
class TrafficSpec:
    """Declarative description of a synthetic traffic load."""

    offered_gbps: float = 40.0
    size_law: SizeDistribution = field(default_factory=lambda: FixedSize(64))
    protocol: str = "udp"  # "udp" | "tcp"
    ip_version: int = 4  # 4 | 6
    flow_count: int = 1024
    seed: int = 7
    payload_maker: Optional[Callable[[random.Random, int], bytes]] = None
    #: Declared DPI match density of the payloads (consumed by the
    #: cost model; keep consistent with ``payload_maker`` if set).
    match_profile: MatchProfile = MatchProfile.PARTIAL_MATCH
    #: Batch arrival process (see :mod:`repro.traffic.arrivals`).
    #: ``None`` means the historical uniform clock — bit-identical to
    #: an explicit :class:`~repro.traffic.arrivals.ConstantRate`.
    arrivals: Optional[ArrivalProcess] = None

    def __post_init__(self):
        if not (math.isfinite(self.offered_gbps) and self.offered_gbps > 0):
            raise ValueError("offered load must be positive and finite, "
                             f"got {self.offered_gbps}")
        if self.protocol not in ("udp", "tcp"):
            raise ValueError(f"unsupported protocol {self.protocol!r}")
        if self.ip_version not in (4, 6):
            raise ValueError("ip_version must be 4 or 6")
        if self.flow_count <= 0:
            raise ValueError("flow_count must be positive")
        if self.arrivals is not None \
                and not isinstance(self.arrivals, ArrivalProcess):
            raise TypeError(
                f"arrivals must be an ArrivalProcess, "
                f"got {type(self.arrivals).__qualname__}"
            )

    @property
    def arrival_process(self) -> ArrivalProcess:
        """The effective arrival process (uniform clock by default)."""
        return self.arrivals if self.arrivals is not None \
            else CONSTANT_RATE

    @property
    def header_len(self) -> int:
        if self.ip_version == 4:
            return (_HEADER_LEN_V4_TCP if self.protocol == "tcp"
                    else _HEADER_LEN_V4_UDP)
        return (_HEADER_LEN_V6_TCP if self.protocol == "tcp"
                else _HEADER_LEN_V6_UDP)

    def mean_packet_interval(self) -> float:
        """Mean inter-packet gap (seconds) at the offered rate."""
        bits_per_packet = (self.size_law.mean() + WIRE_OVERHEAD_BYTES) * 8
        packets_per_second = self.offered_gbps * 1e9 / bits_per_packet
        return 1.0 / packets_per_second

    def packets_per_second(self) -> float:
        """Offered rate expressed in packets per second."""
        return 1.0 / self.mean_packet_interval()


class TrafficGenerator:
    """Deterministic packet source for a :class:`TrafficSpec`."""

    def __init__(self, spec: TrafficSpec):
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._seqno = 0
        self._clock = 0.0
        self._flows = self._make_flows()
        self._tcp_seq: List[int] = [0] * len(self._flows)

    def _make_flows(self) -> List[tuple]:
        """Pre-draw the (src, dst, sport, dport) tuples of all flows."""
        bits = random.Random(self.spec.seed ^ 0x5F0E).getrandbits
        ipv4 = self.spec.ip_version == 4
        flows = []
        for _ in range(self.spec.flow_count):
            if ipv4:
                src = int_to_ipv4(0x0A000000 + _below(bits, 0x1000000))
                dst = int_to_ipv4(0xC0A80000 + _below(bits, 0x10000))
            else:
                src = (0x20010DB8 << 96) | bits(64)
                dst = (0x20010DB9 << 96) | bits(64)
            sport = 1024 + _below(bits, 64512)
            dport = _FLOW_DPORTS[_below(bits, 5)]
            flows.append((src, dst, sport, dport))
        return flows

    def _payload(self, length: int) -> bytes:
        """Up to 64 random bytes, zero-padded to ``length``."""
        if self.spec.payload_maker is not None:
            return self.spec.payload_maker(self._rng, length)
        head = min(length, 64)
        return bytes(map(self._rng.getrandbits, repeat(8, head))) \
            + b"\x00" * (length - head)

    def next_packet(self) -> Packet:
        """Generate the next packet of the stream."""
        spec = self.spec
        frame_size = spec.size_law.sample(self._rng)
        payload_len = max(0, frame_size - spec.header_len)
        flow_index = self._rng.randrange(len(self._flows))
        src, dst, sport, dport = self._flows[flow_index]

        proto = IPPROTO_TCP if spec.protocol == "tcp" else IPPROTO_UDP
        if spec.ip_version == 4:
            ip = IPv4Header(src=src, dst=dst, protocol=proto,
                            identification=self._seqno & 0xFFFF)
            ethertype = ETHERTYPE_IPV4
        else:
            ip = IPv6Header(src=src, dst=dst, next_header=proto)
            ethertype = ETHERTYPE_IPV6

        if spec.protocol == "tcp":
            l4 = TCPHeader(src_port=sport, dst_port=dport,
                           seq=self._tcp_seq[flow_index])
            self._tcp_seq[flow_index] += payload_len
        else:
            l4 = UDPHeader(src_port=sport, dst_port=dport)

        packet = Packet(
            eth=EthernetHeader(ethertype=ethertype),
            ip=ip,
            l4=l4,
            payload=self._payload(payload_len),
            seqno=self._seqno,
            arrival_time=self._clock,
        )
        self._seqno += 1
        self._clock += spec.mean_packet_interval()
        return packet

    def packets(self, count: int) -> Iterator[Packet]:
        """Yield ``count`` packets."""
        for _ in range(count):
            yield self.next_packet()

    def next_batch(self, batch_size: int) -> PacketBatch:
        """Generate one batch of ``batch_size`` packets."""
        batch = PacketBatch(self.packets(batch_size))
        batch.creation_time = batch.packets[0].arrival_time if batch.packets else 0.0
        return batch

    def batches(self, batch_size: int, count: int) -> Iterator[PacketBatch]:
        """Yield ``count`` batches of ``batch_size`` packets each."""
        for _ in range(count):
            yield self.next_batch(batch_size)
