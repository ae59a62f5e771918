"""Packet batches and batch re-organization accounting.

GPU-accelerated frameworks process packets in batches (the paper uses
32 and 64 packets per batch).  The paper's first characterization
finding (Fig. 5) is that Click-style branching forces *batch splits*:
a batch leaving a classifier must be re-organized into smaller
per-output batches, paying memory-movement and batch-management costs.

:class:`PacketBatch` therefore tracks, besides its packets, the number
of split/merge operations it has been through — the cost model in
:mod:`repro.hw.costs` charges for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional

from repro.net.packet import Packet

_batch_ids = itertools.count()


@dataclass
class BatchSplitResult:
    """Outcome of splitting a batch across classifier outputs.

    ``sub_batches`` maps output key -> new batch; ``split_overhead_ops``
    counts the per-packet move operations the split required (used as a
    cost-model input).
    """

    sub_batches: Dict[Hashable, "PacketBatch"]
    split_overhead_ops: int


class PacketBatch:
    """An ordered collection of packets processed as one unit."""

    def __init__(self, packets: Optional[Iterable[Packet]] = None,
                 creation_time: float = 0.0):
        self.packets: List[Packet] = list(packets or [])
        self.uid: int = next(_batch_ids)
        self.creation_time = creation_time
        # Re-organization bookkeeping (inputs to the cost model).
        self.split_count = 0
        self.merge_count = 0
        self.generation = 0  # how many splits deep this batch is

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

    def split_by(self, key: Callable[[Packet], Hashable]) -> BatchSplitResult:
        """Split into per-key sub-batches, preserving intra-key order.

        This models the batch re-organization a Click classifier forces
        on a batching framework.  Each produced sub-batch is one
        generation deeper than its parent, and the number of per-packet
        moves is recorded so the simulator can charge for them.
        """
        buckets: Dict[Hashable, List[Packet]] = {}
        for packet in self.packets:
            buckets.setdefault(key(packet), []).append(packet)
        sub_batches: Dict[Hashable, PacketBatch] = {}
        for bucket_key, packets in buckets.items():
            sub = PacketBatch(packets, creation_time=self.creation_time)
            sub.generation = self.generation + 1
            sub.split_count = self.split_count + 1
            sub.merge_count = self.merge_count
            sub_batches[bucket_key] = sub
        self.split_count += 1
        overhead = len(self.packets) if len(sub_batches) > 1 else 0
        return BatchSplitResult(sub_batches=sub_batches,
                                split_overhead_ops=overhead)

    @classmethod
    def merge(cls, batches: Iterable["PacketBatch"]) -> "PacketBatch":
        """Re-assemble sub-batches into one batch, with the packets
        sorted back into their original sequence-number order."""
        batches = list(batches)
        packets: List[Packet] = [p for b in batches for p in b.packets]
        packets.sort(key=lambda p: p.seqno)
        merged = cls(packets)
        if batches:
            merged.creation_time = min(b.creation_time for b in batches)
            merged.generation = max(b.generation for b in batches)
            merged.split_count = max(b.split_count for b in batches)
            merged.merge_count = max(b.merge_count for b in batches) + 1
        return merged

    def take(self, count: int) -> "PacketBatch":
        """Remove and return the first ``count`` packets as a new batch."""
        head, self.packets = self.packets[:count], self.packets[count:]
        taken = PacketBatch(head, creation_time=self.creation_time)
        taken.generation = self.generation
        taken.split_count = self.split_count
        taken.merge_count = self.merge_count
        return taken

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketBatch(uid={self.uid}, n={len(self.packets)}, "
            f"splits={self.split_count}, merges={self.merge_count})"
        )
