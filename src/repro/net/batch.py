"""Packet batches.

GPU-accelerated frameworks process packets in batches (the paper uses
32 and 64 packets per batch).  The paper's first characterization
finding (Fig. 5) is that Click-style branching forces *batch splits*:
a batch leaving a classifier must be re-organized into smaller
per-output batches, paying memory-movement and batch-management costs.

:class:`PacketBatch` is the functional side of that: an ordered list of
packets that a classifier splits by output port and a merge puts back
in sequence-number order.  It keeps no count of either: the cost model
in :mod:`repro.hw.costs` prices splits and merges from a profile's
port and drop fractions, not from the batches a pass made.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional

from repro.net.packet import Packet


class PacketBatch:
    """An ordered collection of packets processed as one unit."""

    def __init__(self, packets: Optional[Iterable[Packet]] = None,
                 creation_time: float = 0.0):
        self.packets: List[Packet] = list(packets or [])
        self.creation_time = creation_time

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __getitem__(self, index: int) -> Packet:
        return self.packets[index]

    @property
    def live_packets(self) -> List[Packet]:
        """Packets not yet marked dropped."""
        return [p for p in self.packets if not p.dropped]

    @property
    def total_bytes(self) -> int:
        """Sum of wire lengths of live packets."""
        return sum(p.wire_len for p in self.live_packets)

    @property
    def payload_bytes(self) -> int:
        """Sum of payload lengths of live packets."""
        return sum(len(p.payload) for p in self.live_packets)

    def append(self, packet: Packet) -> None:
        self.packets.append(packet)

    def split_by(self, key: Callable[[Packet], Hashable]
                 ) -> Dict[Hashable, "PacketBatch"]:
        """Split into per-key sub-batches, preserving intra-key order.

        This is the batch re-organization a Click classifier forces on
        a batching framework.
        """
        buckets: Dict[Hashable, List[Packet]] = {}
        for packet in self.packets:
            buckets.setdefault(key(packet), []).append(packet)
        return {bucket_key: PacketBatch(packets,
                                        creation_time=self.creation_time)
                for bucket_key, packets in buckets.items()}

    @classmethod
    def merge(cls, batches: Iterable["PacketBatch"]) -> "PacketBatch":
        """Re-assemble sub-batches into one batch, with the packets
        sorted back into their original sequence-number order and the
        earliest creation time."""
        batches = list(batches)
        packets: List[Packet] = [p for b in batches for p in b.packets]
        packets.sort(key=lambda p: p.seqno)
        merged = cls(packets)
        if batches:
            merged.creation_time = min(b.creation_time for b in batches)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PacketBatch(n={len(self.packets)})"
