"""The Table II/III dependency calculus, refined to field granularity.

Two consecutive NFs can run in parallel when duplicating the input to
both and XOR-merging their outputs produces the same packets as the
sequential execution.  The paper reasons about this with pipeline
hazards over per-region (header vs payload) read/write sets:

- RAR (both read): parallelizable;
- WAR (former reads, later writes): parallelizable — duplication gives
  the former the original packet regardless of the later's writes;
- RAW (former writes, later reads): NOT parallelizable — the later NF
  must see the former's output;
- WAW (both write): NOT parallelizable *on the same region* (the XOR
  merge would interleave both writes); parallelizable when the writes
  touch disjoint regions (header vs payload), the starred cases of
  Table III;
- size-changing NFs (add/remove bits) conflict with any other writer
  or payload reader: byte offsets shift, so region reasoning breaks;
- drops are always safe *for stateless NFs*: a packet dropped by
  either branch is dropped after the merge, which matches either
  sequential order the paper's criteria accept.  When the later NF is
  stateful, a former dropper is NOT safe: the duplicated branch feeds
  the stateful NF packets the sequential chain would have filtered
  out, mutating its state (e.g. a NAT allocating port bindings for
  flows an upstream IDS killed) and diverging every later translation.
  The differential oracle in :mod:`repro.validate` mechanically checks
  this distinction.

On top of the region rules, profiles may declare exact field-level
read/write sets (:data:`repro.elements.element.PACKET_FIELDS`).  When
both sides of a RAW/WAW check declare fields, the hazard fires only on
*overlapping* fields — e.g. a NAT writing ``ip.src``/``l4.ports`` no
longer conflicts with a proxy that reads only ``payload``, even though
both touch the header region.  Field sets are closed under derived
writes (any IP-header write dirties ``ip.checksum``; size changes
dirty ``ip.len``/``l4.len`` and therefore ``ip.checksum``), which is
what keeps interacting pairs like "checksum writer vs length writer"
serialized.  Undeclared profiles fall back to region reasoning, so the
refinement is monotone: field declarations can only *remove* hazards,
never invent parallelism for elements that did not opt in.
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Optional, Set

from repro.elements.element import ActionProfile, field_region


class Hazard(enum.Enum):
    """Why two NFs cannot be parallelized."""

    RAW_HEADER = "raw_header"
    RAW_PAYLOAD = "raw_payload"
    WAW_HEADER = "waw_header"
    WAW_PAYLOAD = "waw_payload"
    SIZE_CHANGE = "size_change"
    STATE_AFTER_DROP = "state_after_drop"


class _Footprint:
    """One side of an overlap check: a region set, optionally refined
    to an exact field set."""

    __slots__ = ("regions", "fields")

    def __init__(self, regions: Set[str],
                 fields: Optional[FrozenSet[str]]):
        self.regions = regions
        self.fields = fields

    def overlap_regions(self, other: "_Footprint") -> Set[str]:
        """Regions in which the two footprints can touch common bytes."""
        if self.fields is not None and other.fields is not None:
            return {field_region(f) for f in self.fields & other.fields}
        if self.fields is not None:
            return {field_region(f) for f in self.fields} & other.regions
        if other.fields is not None:
            return self.regions & {field_region(f) for f in other.fields}
        return self.regions & other.regions


def _write_footprint(profile: ActionProfile) -> _Footprint:
    return _Footprint(profile.write_regions(),
                      profile.effective_write_fields())


def _read_footprint(profile: ActionProfile) -> _Footprint:
    return _Footprint(profile.read_regions(),
                      profile.effective_read_fields())


def hazards_between(former: ActionProfile,
                    later: ActionProfile,
                    later_stateful: bool = False) -> FrozenSet[Hazard]:
    """Hazards preventing parallel execution of ``former`` and ``later``.

    ``former`` appears before ``later`` in the SFC order.  An empty
    result means the pair is parallelizable.  ``later_stateful``
    declares that the later NF keeps cross-packet state; combined with
    a dropping former NF this adds :attr:`Hazard.STATE_AFTER_DROP`
    (the duplicated branch would mutate the stateful NF with packets
    the sequential chain filters out).
    """
    hazards: Set[Hazard] = set()

    if later_stateful and former.drops:
        hazards.add(Hazard.STATE_AFTER_DROP)

    former_writes = _write_footprint(former)
    later_writes = _write_footprint(later)

    # RAW: the later NF reads bytes the former writes.
    raw = former_writes.overlap_regions(_read_footprint(later))
    if "header" in raw:
        hazards.add(Hazard.RAW_HEADER)
    if "payload" in raw:
        hazards.add(Hazard.RAW_PAYLOAD)

    # WAW on common bytes: the XOR merge cannot order the writes.
    waw = former_writes.overlap_regions(later_writes)
    if "header" in waw:
        hazards.add(Hazard.WAW_HEADER)
    if "payload" in waw:
        hazards.add(Hazard.WAW_PAYLOAD)

    # Size changes shift byte offsets; any other access conflicts
    # (field declarations cannot soften this: a shifted offset
    # invalidates every fixed field position behind it).
    if former.adds_removes_bits or later.adds_removes_bits:
        other = later if former.adds_removes_bits else former
        if other.reads or other.writes:
            hazards.add(Hazard.SIZE_CHANGE)

    return frozenset(hazards)


def conflicting_write_fields(former: ActionProfile,
                             later: ActionProfile
                             ) -> Optional[FrozenSet[str]]:
    """The exact fields on which two declared writers collide.

    Returns ``None`` when either side declares no field set (region
    reasoning applies instead); otherwise the — possibly empty —
    intersection of the closed write sets.  Diagnostics only; the
    verdict comes from :func:`hazards_between`.
    """
    former_fields = former.effective_write_fields()
    later_fields = later.effective_write_fields()
    if former_fields is None or later_fields is None:
        return None
    return former_fields & later_fields


def parallelizable(former: ActionProfile, later: ActionProfile,
                   later_stateful: bool = False) -> bool:
    """Table III verdict for an ordered NF pair."""
    return not hazards_between(former, later,
                               later_stateful=later_stateful)


def explain(former: ActionProfile, later: ActionProfile,
            later_stateful: bool = False) -> str:
    """Human-readable parallelizability explanation (for tooling)."""
    hazards = hazards_between(former, later,
                              later_stateful=later_stateful)
    if not hazards:
        return "parallelizable (no RAW/WAW hazards, no size change)"
    reasons = ", ".join(sorted(h.value for h in hazards))
    text = f"not parallelizable: {reasons}"
    fields = conflicting_write_fields(former, later)
    if fields:
        text += f" (conflicting fields: {', '.join(sorted(fields))})"
    return text
