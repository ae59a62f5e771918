"""IPv6 forwarding: hash tables with binary search on prefix length.

The paper notes IPv6 lookup "takes up to 7 memory lookups" and that
"the hashing in IPv6 also makes it compute-intensive since binary
search should be performed for every destination address" — this is
the classic Waldvogel scheme: one hash table per prefix length and a
binary search over the lengths.  We implement exactly that, including
marker entries so the binary search is correct.  ``lookup_with_probes``
reports a lookup's probe count (the tests bound it); the cost model
prices a lookup from the table's prefix count instead.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.elements.element import ActionProfile, TrafficClass
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement, OffloadTraits
from repro.elements.standard import CheckIPHeader, DecIPTTL
from repro.net.batch import PacketBatch
from repro.nf.base import NetworkFunction


def _prefix_of(address: int, length: int) -> int:
    if length == 0:
        return 0
    return address >> (128 - length)


class HashedPrefixTable:
    """Waldvogel-style IPv6 LPM: per-length hash tables + binary search.

    Real prefixes live in per-length hash tables.  Before a lookup, a
    *search structure* is (re)built that adds, for every real prefix
    and every shorter occupied length, a marker entry carrying the
    best-matching-prefix (BMP) next hop at that level — the detail
    that makes the binary search over prefix lengths correct when the
    longer probe ultimately misses.
    """

    def __init__(self):
        # length -> {prefix value: next hop} (real entries only)
        self._real: Dict[int, Dict[int, int]] = {}
        # length -> {prefix value: bmp next hop or None} (real + markers)
        self._search: Dict[int, Dict[int, Optional[int]]] = {}
        self._lengths: List[int] = []
        self._dirty = False
        self.prefix_count = 0

    def insert(self, prefix: int, length: int, next_hop: int) -> None:
        if not 0 <= length <= 128:
            raise ValueError("IPv6 prefix length must be in [0, 128]")
        if not 0 <= prefix < 1 << length:
            raise ValueError(f"IPv6 prefix {prefix} outside [0, 2**{length})")
        table = self._real.setdefault(length, {})
        if prefix not in table:
            self.prefix_count += 1
        table[prefix] = next_hop
        self._dirty = True

    def _best_match_up_to(self, prefix: int, length: int) -> Optional[int]:
        """Longest real prefix of ``prefix`` with length <= ``length``.

        ``prefix`` is given as a ``length``-bit value.
        """
        for candidate in sorted(self._real, reverse=True):
            if candidate > length:
                continue
            truncated = prefix >> (length - candidate) if candidate < length \
                else prefix
            hop = self._real[candidate].get(truncated)
            if hop is not None:
                return hop
        return None

    def _rebuild_search(self) -> None:
        self._lengths = sorted(self._real)
        self._search = {
            length: dict(entries) for length, entries in self._real.items()
        }
        for length in self._lengths:
            for prefix in self._real[length]:
                for shorter in self._lengths:
                    if shorter >= length:
                        break
                    marker_prefix = prefix >> (length - shorter)
                    table = self._search[shorter]
                    if marker_prefix not in self._real.get(shorter, {}):
                        # Marker: carries the BMP at this level so a
                        # failed longer probe can fall back correctly.
                        table.setdefault(
                            marker_prefix,
                            self._best_match_up_to(marker_prefix, shorter),
                        )
        self._dirty = False

    def lookup(self, address: int) -> Optional[int]:
        hop, _probes = self.lookup_with_probes(address)
        return hop

    def lookup_with_probes(self, address: int) -> Tuple[Optional[int], int]:
        """Binary search over prefix lengths; return (next hop, probes)."""
        if self._dirty:
            self._rebuild_search()
        if not self._lengths:
            return None, 0
        best: Optional[int] = None
        low, high = 0, len(self._lengths) - 1
        probes = 0
        while low <= high:
            mid = (low + high) // 2
            length = self._lengths[mid]
            probes += 1
            table = self._search[length]
            entry = table.get(_prefix_of(address, length), "miss")
            if entry == "miss":
                high = mid - 1  # nothing at this length: go shorter
            else:
                if entry is not None:
                    best = entry
                low = mid + 1  # marker or match: try longer prefixes
        return best, probes

    @classmethod
    def random_table(cls, prefix_count: int = 1024, seed: int = 5,
                     next_hops: int = 16) -> "HashedPrefixTable":
        """Reproducible synthetic IPv6 FIB with a default route."""
        if not prefix_count >= 1:
            raise ValueError("prefix_count must be at least 1")
        rng = random.Random(seed)
        table = cls()
        table.insert(0, 0, 0)
        lengths = (16, 32, 48, 48, 64, 64, 96, 128)
        seen: Set[Tuple[int, int]] = set()
        while table.prefix_count < prefix_count:
            length = rng.choice(lengths)
            prefix = rng.getrandbits(length) if length else 0
            if (prefix, length) in seen:
                continue
            seen.add((prefix, length))
            table.insert(prefix, length, rng.randrange(next_hops))
        return table


class IPv6Lookup(OffloadableElement):
    """Offloadable IPv6 FIB lookup (hash + binary search)."""

    traffic_class = TrafficClass.MODIFIER
    idempotent = True
    actions = ActionProfile(
        reads_header=True, writes_header=True,
        reads_fields={"eth.type", "ip.dst"},
        writes_fields={"eth.dst"},
    )
    traits = OffloadTraits(
        h2d_bytes_per_packet=16.0,
        d2h_bytes_per_packet=4.0,
        relative=False,
        divergent=True,  # binary search path depends on the address
        compute_intensity=0.8,
    )

    def __init__(self, table: HashedPrefixTable, table_id: str = "fib6",
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.table = table
        self.table_id = table_id

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            if not packet.is_ipv6:
                continue
            next_hop = self.table.lookup(packet.ip.dst)
            if next_hop is None:
                packet.mark_dropped("no route")
                continue
            packet.annotations["next_hop"] = next_hop
            packet.eth.dst_mac = f"02:00:00:00:02:{next_hop & 0xFF:02x}"
        out = PacketBatch([p for p in batch.packets if not p.dropped],
                          creation_time=batch.creation_time)
        return {0: out}

    def signature(self) -> Hashable:
        return ("IPv6Lookup", self.table_id)

    def cost_hints(self) -> Dict[str, float]:
        return {"table_prefixes": float(self.table.prefix_count)}


class IPv6Forwarder(NetworkFunction):
    """IPv6 packet forwarder NF."""

    nf_type = "ipv6"
    actions = ActionProfile(
        reads_header=True, writes_header=True, drops=True,
        reads_fields={"eth.type", "ip.dst", "ip.ttl"},
        writes_fields={"eth.dst", "ip.ttl"},
    )

    def __init__(self, table: Optional[HashedPrefixTable] = None,
                 name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.table = table or HashedPrefixTable.random_table()

    def build_core(self) -> ElementGraph:
        graph = ElementGraph(name=f"{self.name}/core")
        graph.chain(
            CheckIPHeader(name=f"{self.name}/check"),
            IPv6Lookup(self.table, name=f"{self.name}/lookup"),
            DecIPTTL(name=f"{self.name}/ttl"),
        )
        return graph


__all__ = ["HashedPrefixTable", "IPv6Lookup", "IPv6Forwarder"]
