"""Traffic duplication and the XOR/OR merge (Section IV.B.1).

The orchestrator duplicates input packets to parallel NF branches.
After the branches finish, the merge recovers the combined result:

    for each branch output:  diff_i = original XOR output_i
    combined = diff_1 OR diff_2 OR ... OR diff_k
    merged   = original XOR combined

The parallelization criteria guarantee that writer branches touch
disjoint bits, so OR-ing the diffs never conflicts — but the merge no
longer *trusts* that guarantee: it checks every byte offset and raises
a structured :class:`MergeConflictError` when two branches wrote
different values to the same offset, instead of silently OR-ing the
interleaved writes into a packet neither sequential order could
produce.  A packet dropped by any branch is dropped after the merge
(the IDS case).  A single size-changing branch is tolerated when every
other branch left the packet untouched (its output is taken verbatim).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.elements.element import ActionProfile, Element, PortSpec, TrafficClass
from repro.net.batch import PacketBatch
from repro.net.packet import IPv4Header, IPv6Header, Packet, UDPHeader

#: Annotation the duplicating Tee stamps on every clone so the merge
#: can attribute conflicting writes to a branch by name.
BRANCH_ANNOTATION = "tee_branch"


class MergeConflictError(ValueError):
    """Branch outputs cannot be merged into one packet.

    Carries structured context for diagnostics: the logical packet
    ``uid``, the names of the ``branches`` whose writes collide, and
    the offending byte ``offsets`` into the original wire bytes
    (empty for size conflicts, where no per-byte attribution exists).
    """

    def __init__(self, message: str, *,
                 uid: Optional[int] = None,
                 branches: Sequence[str] = (),
                 offsets: Sequence[int] = ()):
        super().__init__(message)
        self.uid = uid
        self.branches = tuple(branches)
        self.offsets = tuple(offsets)


#: ``bytes.translate`` table of a written-byte mask: 0 stays 0x00,
#: every non-zero delta byte becomes 0xFF.
_WRITTEN = bytes([0]) + bytes([0xFF]) * 255


def _branch_label(packet: Packet, position: int,
                  branch_names: Optional[Sequence[str]]) -> str:
    """Human-readable name of the branch a clone came from."""
    index = packet.annotations.get(BRANCH_ANNOTATION, position)
    if branch_names is not None and 0 <= index < len(branch_names):
        return branch_names[index]
    return f"branch{index}"


def _find_delta_conflicts(deltas: Sequence[bytes]) -> Tuple[List[int],
                                                            List[int]]:
    """Offsets where two branches wrote different values.

    Returns (conflicting offsets, indices of branches writing there).
    Two branches writing the *same* new value to an offset produce
    identical deltas, which OR-compose losslessly — only non-identical
    overlapping deltas are conflicts.
    """
    offsets: List[int] = []
    writers: set = set()
    for offset in range(len(deltas[0]) if deltas else 0):
        seen = set()
        for index, delta in enumerate(deltas):
            if delta[offset]:
                seen.add(delta[offset])
        if len(seen) > 1:
            offsets.append(offset)
            for index, delta in enumerate(deltas):
                if delta[offset]:
                    writers.add(index)
    return offsets, sorted(writers)


def _restore_auto_lengths(merged: Packet,
                          branches: Sequence[Packet]) -> None:
    """Re-arm the auto-computed length fields after reconstruction.

    ``Packet.to_bytes`` computes IPv4 total length, IPv6 payload
    length, and UDP length on the fly while their structured value is
    the 0 sentinel; ``Packet.from_bytes`` necessarily freezes the
    parsed value.  If every branch kept the sentinel, the sequential
    execution would have kept it too — so restore it, or a later
    size-changing NF (e.g. a WAN optimizer compressing the payload)
    would serialize a stale length and checksum.
    """
    if isinstance(merged.ip, IPv4Header) and all(
            isinstance(b.ip, IPv4Header) and b.ip.total_length == 0
            for b in branches):
        merged.ip.total_length = 0
    if isinstance(merged.ip, IPv6Header) and all(
            isinstance(b.ip, IPv6Header) and b.ip.payload_length == 0
            for b in branches):
        merged.ip.payload_length = 0
    if isinstance(merged.l4, UDPHeader) and all(
            isinstance(b.l4, UDPHeader) and b.l4.length == 0
            for b in branches):
        merged.l4.length = 0


def _union_annotations(merged: Packet,
                       branch_outputs: Sequence[Packet]) -> Packet:
    """Union the branch annotations (classification results,
    alerts...), the first branch to set a key winning."""
    for output in branch_outputs:
        for key, value in output.annotations.items():
            merged.annotations.setdefault(key, value)
    return merged


def xor_merge_packets(original_bytes: bytes,
                      branch_outputs: List[Packet],
                      branch_names: Optional[Sequence[str]] = None
                      ) -> Packet:
    """Merge parallel branch outputs of one logical packet.

    ``branch_outputs`` must be non-empty; all outputs carry the same
    ``uid``.  Returns the merged packet (bookkeeping fields taken from
    the first output).  Raises :class:`MergeConflictError` when two
    branches resized the packet, a branch wrote next to a resizer, or
    two branches wrote different values to the same byte offset.

    The decision order keeps serialization off the common paths:
    outputs whose header fields and payload are all ``==`` are
    identical without serializing anything (equal fields imply equal
    wire bytes); otherwise each output is serialized once and its
    bytes decide the identical, resize and delta cases.  Deltas are
    integers, and the per-offset conflict scan runs only when two
    outputs' written-byte masks overlap.
    """
    if not branch_outputs:
        raise ValueError("no branch outputs to merge")
    first = branch_outputs[0]
    uid = first.uid
    # Identical outputs merge trivially (e.g. identical tenant NFs
    # that transform the packet the same way): no conflict to resolve.
    if all(p.eth == first.eth and p.ip == first.ip and p.l4 == first.l4
           and p.payload == first.payload for p in branch_outputs[1:]):
        return _union_annotations(first.clone(), branch_outputs)
    wires = [p.to_bytes() for p in branch_outputs]
    if all(wire == wires[0] for wire in wires[1:]):
        return _union_annotations(first.clone(), branch_outputs)
    size = len(original_bytes)
    resized = [p for p, wire in zip(branch_outputs, wires)
               if len(wire) != size]
    if len(resized) > 1:
        raise MergeConflictError(
            "more than one branch changed the packet size; such NFs "
            "must not be parallelized (Table III size-change rule)",
            uid=uid,
            branches=[_branch_label(p, branch_outputs.index(p),
                                    branch_names) for p in resized],
        )
    if resized:
        # The size-changer's output is authoritative; other branches
        # must have left the bytes unchanged (read-only).
        for peer, wire in zip(branch_outputs, wires):
            if len(wire) == size and wire != original_bytes:
                raise MergeConflictError(
                    "a branch wrote the packet while another resized it",
                    uid=uid,
                    branches=[
                        _branch_label(resized[0],
                                      branch_outputs.index(resized[0]),
                                      branch_names),
                        _branch_label(peer, branch_outputs.index(peer),
                                      branch_names),
                    ],
                )
        return _union_annotations(resized[0].clone(), branch_outputs)
    original = int.from_bytes(original_bytes, "big")
    deltas = [original ^ int.from_bytes(wire, "big") for wire in wires]
    written = 0
    overlap = False
    for delta in deltas:
        if delta:
            mask = int.from_bytes(
                delta.to_bytes(size, "big").translate(_WRITTEN), "big")
            overlap = overlap or bool(written & mask)
            written |= mask
    if overlap:
        offsets, writer_indices = _find_delta_conflicts(
            [delta.to_bytes(size, "big") for delta in deltas])
        if offsets:
            labels = [_branch_label(branch_outputs[i], i, branch_names)
                      for i in writer_indices]
            raise MergeConflictError(
                f"packet uid={uid}: branches {', '.join(labels)} wrote "
                f"different values to byte offset(s) "
                f"{', '.join(str(o) for o in offsets[:8])}"
                + ("..." if len(offsets) > 8 else "")
                + "; overlapping non-identical writes cannot be "
                "XOR-merged (the parallelizer must not stage such NFs "
                "together)",
                uid=uid, branches=labels, offsets=offsets,
            )
    combined = 0
    for delta in deltas:
        combined |= delta
    merged = Packet.from_bytes(
        (original ^ combined).to_bytes(size, "big"),
        uid=uid,
        seqno=first.seqno,
        arrival_time=first.arrival_time,
    )
    _restore_auto_lengths(merged, branch_outputs)
    return _union_annotations(merged, branch_outputs)


class OriginalSnapshot(Element):
    """Record each packet's pre-branch wire bytes for the merge.

    Placed immediately before the duplicating Tee; the annotation
    travels with every clone.
    """

    traffic_class = TrafficClass.OBSERVER
    idempotent = True
    actions = ActionProfile(reads_header=True, reads_payload=True)

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            packet.annotations["orig_bytes"] = packet.to_bytes()
        return {0: batch}

    def signature(self) -> Hashable:
        return ("OriginalSnapshot",)


class XorMerge(Element):
    """Merge point of parallel SFC branches.

    Receives (as one merged batch, per the graph execution semantics)
    all surviving clones from ``branch_count`` branches.  For each
    packet uid, if fewer than ``branch_count`` clones survived, some
    branch dropped the packet and the merge drops it; otherwise the
    clones are XOR-merged into one output packet.  ``branch_names``
    (the stage's NF names, in Tee port order) are used to attribute
    merge conflicts to the offending branches.
    """

    traffic_class = TrafficClass.MODIFIER
    actions = ActionProfile(reads_header=True, reads_payload=True,
                            writes_header=True, writes_payload=True,
                            drops=True)

    def __init__(self, branch_count: int, name: Optional[str] = None,
                 branch_names: Optional[Sequence[str]] = None):
        if branch_count < 1:
            raise ValueError("branch_count must be positive")
        if branch_names is not None and len(branch_names) != branch_count:
            raise ValueError(
                f"got {len(branch_names)} branch names for "
                f"{branch_count} branches"
            )
        super().__init__(name=name, ports=PortSpec(inputs=1, outputs=1))
        self.branch_count = branch_count
        self.branch_names = tuple(branch_names) if branch_names else None
        self.merged_count = 0
        self.dropped_by_branch = 0

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        clones_by_uid: Dict[int, List[Packet]] = {}
        order: List[int] = []
        for packet in batch.live_packets:
            if packet.uid not in clones_by_uid:
                order.append(packet.uid)
            clones_by_uid.setdefault(packet.uid, []).append(packet)
        merged_packets: List[Packet] = []
        for uid in order:
            clones = clones_by_uid[uid]
            if len(clones) < self.branch_count:
                self.dropped_by_branch += 1
                for clone in clones:
                    clone.mark_dropped("dropped by parallel branch")
                continue
            original = clones[0].annotations.get("orig_bytes")
            if original is None:
                raise MergeConflictError(
                    f"packet uid={uid} reached XorMerge without an "
                    "OriginalSnapshot annotation",
                    uid=uid,
                )
            merged = xor_merge_packets(original, clones,
                                       branch_names=self.branch_names)
            merged.annotations.pop("orig_bytes", None)
            merged.annotations.pop(BRANCH_ANNOTATION, None)
            merged_packets.append(merged)
            self.merged_count += 1
        merged_packets.sort(key=lambda p: p.seqno)
        return {0: PacketBatch(merged_packets,
                               creation_time=batch.creation_time)}

    def signature(self) -> Hashable:
        return ("unique", self.uid)  # stage-specific: never deduplicate

    def cost_hints(self) -> Dict[str, float]:
        return {"branches": float(self.branch_count)}
