"""Frozen byte-loop XOR/OR merge: the test oracle of the merge.

This is :func:`repro.core.merge.xor_merge_packets` as it was before
the merge decided on fields first and computed its deltas as
integers: it serializes every branch copy for each question it asks
and XORs, ORs and scans the wire bytes one byte at a time.

It lives under ``tests/`` because nothing in the product runs it; it
is the reference the product merge is checked against:

1. **Seeded corpus** — ``tests/core/test_merge_reference.py`` merges
   a fixed set of branch outputs (field-equal and byte-equal copies,
   disjoint, same-value and conflicting writers, three branches,
   resizers, IPv4/IPv6 x TCP/UDP) through both and requires the same
   wire bytes, header fields, bookkeeping and annotation items, or
   the same :class:`~repro.core.merge.MergeConflictError` (type,
   message, uid, branches, offsets).
2. **Property** — ``tests/properties/test_merge_properties.py`` draws
   the same kinds of cases from Hypothesis (``-m property``).

Its value is being frozen: do not "fix" or speed it up.  The helpers
it shares with the product (``_branch_label``,
``_find_delta_conflicts``, ``_restore_auto_lengths``) are imported,
so only the decision order and the byte arithmetic are its own.
Product code must not import this module.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.merge import (
    MergeConflictError,
    _branch_label,
    _find_delta_conflicts,
    _restore_auto_lengths,
)
from repro.net.packet import Packet


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def _or_bytes(a: bytes, b: bytes) -> bytes:
    return bytes(x | y for x, y in zip(a, b))


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
    """
    if not branch_outputs:
        raise ValueError("no branch outputs to merge")
    uid = branch_outputs[0].uid
    # Identical outputs merge trivially (e.g. identical tenant NFs
    # that transform the packet the same way): no conflict to resolve.
    first_bytes = branch_outputs[0].to_bytes()
    if all(p.to_bytes() == first_bytes for p in branch_outputs[1:]):
        merged = branch_outputs[0].clone()
        for output in branch_outputs:
            for key, value in output.annotations.items():
                merged.annotations.setdefault(key, value)
        return merged
    same_size = [p for p in branch_outputs
                 if len(p.to_bytes()) == len(original_bytes)]
    resized = [p for p in branch_outputs
               if len(p.to_bytes()) != len(original_bytes)]
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
        for peer in same_size:
            if peer.to_bytes() != original_bytes:
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
        base = resized[0]
        merged = base.clone()
    else:
        deltas = [_xor_bytes(original_bytes, output.to_bytes())
                  for output in branch_outputs]
        offsets, writer_indices = _find_delta_conflicts(deltas)
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
        combined = bytes(len(original_bytes))
        for delta in deltas:
            combined = _or_bytes(combined, delta)
        merged_bytes = _xor_bytes(original_bytes, combined)
        template = branch_outputs[0]
        merged = Packet.from_bytes(
            merged_bytes,
            uid=template.uid,
            seqno=template.seqno,
            arrival_time=template.arrival_time,
        )
        _restore_auto_lengths(merged, branch_outputs)
    # Union the branch annotations (classification results, alerts...).
    for output in branch_outputs:
        for key, value in output.annotations.items():
            merged.annotations.setdefault(key, value)
    return merged
