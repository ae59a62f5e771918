"""IPv4 forwarding: longest-prefix-match trie and the forwarder NF.

The paper describes IPv4 lookup as a two-memory-access operation over
a forwarding table; we implement a classic binary trie with
longest-prefix-match semantics, the functional reference.  The cost
model prices a lookup from the table's prefix count
(:meth:`IPv4Lookup.cost_hints`), not from the nodes a lookup touched.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional, Tuple

from repro.elements.element import ActionProfile, TrafficClass
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement, OffloadTraits
from repro.elements.standard import CheckIPHeader, DecIPTTL
from repro.net.batch import PacketBatch
from repro.net.packet import int_to_ipv4, ipv4_to_int
from repro.nf.base import NetworkFunction
from repro.traffic.rng import _below


#: The (length, mask) draws of :meth:`LPMTrie.random_table`: one /8,
#: two /16s, three /24s and one /32 in seven.
_RANDOM_PREFIXES = tuple((length, ~((1 << (32 - length)) - 1) & 0xFFFFFFFF)
                         for length in (8, 16, 16, 24, 24, 24, 32))


class _TrieNode:
    __slots__ = ("children", "next_hop")

    def __init__(self):
        self.children: List[Optional["_TrieNode"]] = [None, None]
        self.next_hop: Optional[int] = None


class LPMTrie:
    """Binary trie with longest-prefix-match lookup.

    ``insert`` takes a (prefix value, prefix length) pair and a
    next-hop id; ``lookup`` walks at most 32 levels and remembers the
    deepest next hop seen.  ``lookup_with_depth`` also reports how many
    nodes were touched (the tests pin it); the cost model prices a
    lookup from ``prefix_count`` instead.

    Clones of an element share its trie: lookups only read it.
    """

    def __init__(self):
        self._root = _TrieNode()
        self.prefix_count = 0

    def __deepcopy__(self, memo) -> "LPMTrie":
        return self

    def insert(self, prefix: int, length: int, next_hop: int) -> None:
        if not 0 <= length <= 32:
            raise ValueError("IPv4 prefix length must be in [0, 32]")
        node = self._root
        for level in range(31, 31 - length, -1):
            children = node.children
            bit = (prefix >> level) & 1
            child = children[bit]
            if child is None:
                child = children[bit] = _TrieNode()
            node = child
        if node.next_hop is None:
            self.prefix_count += 1
        node.next_hop = next_hop

    def lookup(self, address: int) -> Optional[int]:
        next_hop, _depth = self.lookup_with_depth(address)
        return next_hop

    def lookup_with_depth(self, address: int) -> Tuple[Optional[int], int]:
        node = self._root
        best = node.next_hop
        depth = 0
        for level in range(32):
            bit = (address >> (31 - level)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            depth += 1
            if node.next_hop is not None:
                best = node.next_hop
        return best, depth

    @classmethod
    def random_table(cls, prefix_count: int = 1024, seed: int = 3,
                     next_hops: int = 16) -> "LPMTrie":
        """Build a reproducible synthetic FIB with a default route.

        Each prefix draws its length, its bits and its next hop, in
        that order.
        """
        bits = random.Random(seed).getrandbits
        trie = cls()
        trie.insert(0, 0, 0)  # default route
        while trie.prefix_count < prefix_count:
            length, mask = _RANDOM_PREFIXES[_below(bits, 7)]
            trie.insert(bits(32) & mask, length, _below(bits, next_hops))
        return trie


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
            address = ipv4_to_int(packet.ip.dst)
            next_hop = self.table.lookup(address)
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
