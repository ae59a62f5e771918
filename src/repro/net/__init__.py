"""Packet, batch, and flow substrate.

This package stands in for the DPDK/NIC data path of the paper's
testbed: packets are plain Python objects with fully serializable
Ethernet/IPv4/IPv6/TCP/UDP headers, batches model the batch-oriented
processing style of GPU-accelerated frameworks, and flows provide the
stateful (per-connection) view required by IDS-style NFs.
"""

from repro.net.packet import (
    EthernetHeader,
    IPv4Header,
    IPv6Header,
    TCPHeader,
    UDPHeader,
    Packet,
)
from repro.net.batch import PacketBatch
from repro.net.flow import FiveTuple, FlowTable

__all__ = [
    "EthernetHeader",
    "IPv4Header",
    "IPv6Header",
    "TCPHeader",
    "UDPHeader",
    "Packet",
    "PacketBatch",
    "FiveTuple",
    "FlowTable",
]
