"""IPv4 forwarding: longest-prefix-match trie and the forwarder NF.

The paper describes IPv4 lookup as a two-memory-access operation over
a forwarding table; we implement a classic binary trie with
longest-prefix-match semantics, which is both the functional reference
and the source of the memory-access counts the cost model charges.
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
    nodes were touched, which the cost model uses as the lookup's
    memory-access count.

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
        for level in range(length):
            bit = (prefix >> (31 - level)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
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
        """Build a reproducible synthetic FIB with a default route."""
        rng = random.Random(seed)
        trie = cls()
        trie.insert(0, 0, 0)  # default route
        while trie.prefix_count < prefix_count:
            length = rng.choice((8, 16, 16, 24, 24, 24, 32))
            prefix = rng.getrandbits(32)
            prefix &= ~((1 << (32 - length)) - 1) if length < 32 else 0xFFFFFFFF
            trie.insert(prefix & 0xFFFFFFFF, length, rng.randrange(next_hops))
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
        self.lookup_depth_total = 0

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            if not packet.is_ipv4:
                continue
            address = ipv4_to_int(packet.ip.dst)
            next_hop, depth = self.table.lookup_with_depth(address)
            self.lookup_depth_total += depth
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


def table_from_destinations(destinations: List[str],
                            next_hop_base: int = 1) -> LPMTrie:
    """Build a FIB containing a /24 route for every given destination."""
    trie = LPMTrie()
    trie.insert(0, 0, 0)
    for offset, dst in enumerate(destinations):
        value = ipv4_to_int(dst) & 0xFFFFFF00
        trie.insert(value, 24, next_hop_base + offset)
    return trie


__all__ = [
    "LPMTrie",
    "IPv4Lookup",
    "IPv4Forwarder",
    "table_from_destinations",
    "int_to_ipv4",
]
