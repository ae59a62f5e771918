"""IPv4 forwarding: the longest-prefix-match FIB and the forwarder NF.

The paper describes IPv4 lookup as a two-memory-access operation over
a forwarding table; the functional reference here keeps one hash
table per occupied prefix length and probes the lengths longest
first, so the first hit is the longest matching prefix.  The cost
model prices a lookup from the table's prefix count
(:meth:`IPv4Lookup.cost_hints`), not from the tables a lookup probed.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Optional, Tuple

from repro.elements.element import ActionProfile, TrafficClass
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement, OffloadTraits
from repro.elements.standard import CheckIPHeader, DecIPTTL
from repro.net.batch import PacketBatch
from repro.net.packet import int_to_ipv4, ipv4_to_int
from repro.nf.base import NetworkFunction
from repro.traffic.rng import _below


#: The lengths :meth:`LPMTrie.random_table` draws: one /8, two /16s,
#: three /24s and one /32 in seven.
_RANDOM_LENGTHS = (8, 16, 16, 24, 24, 24, 32)


class LPMTrie:
    """Longest-prefix-match FIB: one hash table per prefix length.

    ``_tables[L]`` maps ``prefix >> (32 - L)`` (host bits dropped) to
    the next hop, and ``lookup`` walks ``_probes``, the (32 - L, table)
    pairs of the occupied lengths, longest first, and returns the first
    hit: the answers of the binary trie whose name it keeps.  The
    tables hold only ints, which the cyclic garbage collector does not
    track.

    Clones of an element share its table: lookups only read it.
    """

    def __init__(self):
        self._tables: Dict[int, Dict[int, int]] = {}
        self._probes: Tuple[Tuple[int, Dict[int, int]], ...] = ()
        self.prefix_count = 0

    def __deepcopy__(self, memo) -> "LPMTrie":
        return self

    def insert(self, prefix: int, length: int, next_hop: int) -> None:
        if not 0 <= length <= 32:
            raise ValueError("IPv4 prefix length must be in [0, 32]")
        if not 0 <= prefix <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 prefix {prefix} outside [0, 2**32)")
        if not isinstance(next_hop, int):
            raise TypeError(f"next hop must be an int, not {next_hop!r}")
        table = self._tables.get(length)
        if table is None:
            table = self._tables[length] = {}
            self._probes = tuple((32 - n, self._tables[n])
                                 for n in sorted(self._tables, reverse=True))
        key = prefix >> (32 - length)
        if key not in table:
            self.prefix_count += 1
        table[key] = next_hop

    def lookup(self, address: int) -> Optional[int]:
        if not 0 <= address <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 address {address} outside [0, 2**32)")
        for shift, table in self._probes:
            next_hop = table.get(address >> shift)
            if next_hop is not None:
                return next_hop
        return None

    @classmethod
    def random_table(cls, prefix_count: int = 1024, seed: int = 3,
                     next_hops: int = 16) -> "LPMTrie":
        """Build a reproducible synthetic FIB with a default route.

        Each prefix draws its length, its 32 bits (host bits included)
        and its next hop, in that order.
        """
        if not prefix_count >= 1:
            raise ValueError("prefix_count must be at least 1")
        bits = random.Random(seed).getrandbits
        table = cls()
        table.insert(0, 0, 0)  # default route
        while table.prefix_count < prefix_count:
            length = _RANDOM_LENGTHS[_below(bits, 7)]
            table.insert(bits(32), length, _below(bits, next_hops))
        return table


class IPv4Lookup(OffloadableElement):
    """The offloadable FIB-lookup element.

    Reads the destination address, annotates the packet with its next
    hop, and rewrites the destination MAC to the hop's address (the
    forwarder "rewrites the destination for this packet and transmits
    it").  Only 4-byte addresses cross PCIe per packet, making the
    element transfer-light (cf. the paper's per-NF offload profiles).
    """

    traffic_class = TrafficClass.MODIFIER
    idempotent = True
    actions = ActionProfile(
        reads_header=True, writes_header=True,
        reads_fields={"eth.type", "ip.dst"},
        writes_fields={"eth.dst"},
    )
    # The lookup ships the IP header to the device and needs the
    # rewritten frame header back — IPv4 forwarding is transfer-bound
    # on a discrete GPU, which is why GTA leaves it on the CPU
    # (Fig. 15's IPv4 result).
    traits = OffloadTraits(
        h2d_bytes_per_packet=64.0,
        d2h_bytes_per_packet=96.0,
        relative=False,
        divergent=False,
        compute_intensity=0.15,
    )

    def __init__(self, table: LPMTrie, table_id: str = "fib0",
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.table = table
        self.table_id = table_id

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            if not packet.is_ipv4:
                continue
            next_hop = self.table.lookup(ipv4_to_int(packet.ip.dst))
            if next_hop is None:
                packet.mark_dropped("no route")
                continue
            packet.annotations["next_hop"] = next_hop
            packet.eth.dst_mac = f"02:00:00:00:01:{next_hop & 0xFF:02x}"
        out = PacketBatch([p for p in batch.packets if not p.dropped],
                          creation_time=batch.creation_time)
        return {0: out}

    def signature(self) -> Hashable:
        return ("IPv4Lookup", self.table_id)

    def cost_hints(self) -> Dict[str, float]:
        return {"table_prefixes": float(self.table.prefix_count)}


class IPv4Forwarder(NetworkFunction):
    """IP packet forwarder NF: check -> LPM lookup -> TTL decrement."""

    nf_type = "ipv4"
    actions = ActionProfile(
        reads_header=True, writes_header=True, drops=True,
        reads_fields={"eth.type", "ip.dst", "ip.ttl"},
        writes_fields={"eth.dst", "ip.ttl"},  # + derived ip.checksum
    )

    def __init__(self, table: Optional[LPMTrie] = None,
                 name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.table = table or LPMTrie.random_table()

    def build_core(self) -> ElementGraph:
        graph = ElementGraph(name=f"{self.name}/core")
        graph.chain(
            CheckIPHeader(name=f"{self.name}/check"),
            IPv4Lookup(self.table, name=f"{self.name}/lookup"),
            DecIPTTL(name=f"{self.name}/ttl"),
        )
        return graph


__all__ = [
    "LPMTrie",
    "IPv4Lookup",
    "IPv4Forwarder",
    "int_to_ipv4",
]
