"""Element base classes.

An :class:`Element` is the unit of packet processing (Click's
``element``): it consumes one input batch and emits batches on its
output ports.  Elements carry three kinds of metadata that the
NFCompass algorithms need:

- a :class:`TrafficClass` (classifier / modifier / shaper / ...) used
  by the NF synthesizer's re-ordering legality rules (classifiers may
  not move across modifiers or shapers, Section IV.B.2);
- an :class:`ActionProfile` describing which packet regions the
  element reads/writes and whether it can drop — the per-element
  analogue of the paper's Table II;
- cost hints consumed by the :mod:`repro.hw.costs` performance model.
"""

from __future__ import annotations

import copy
import enum
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Optional, Set, Tuple

from repro.net.batch import PacketBatch

_element_ids = itertools.count()


#: The field taxonomy of the refined (field-granular) Table II/III
#: calculus: every declarable packet field, mapped to the coarse
#: region (``"header"`` or ``"payload"``) it lives in.  Field-level
#: read/write sets are strictly finer than the paper's two regions, so
#: a declared field must always be covered by the matching region flag
#: (enforced by :meth:`ActionProfile.__post_init__`).
PACKET_FIELDS: Dict[str, str] = {
    "eth.src": "header",
    "eth.dst": "header",
    "eth.type": "header",
    "ip.src": "header",
    "ip.dst": "header",
    "ip.proto": "header",
    "ip.ttl": "header",
    "ip.tos": "header",
    "ip.id": "header",
    "ip.len": "header",
    "ip.checksum": "header",
    "l4.ports": "header",
    "l4.seq": "header",
    "l4.flags": "header",
    "l4.len": "header",
    "payload": "payload",
}

#: Derived-field dependencies: writing a key field also rewrites the
#: value fields on the wire.  The IPv4 checksum is recomputed from the
#: whole IP header at serialization time, so *any* IP-header field
#: write dirties the checksum bytes — two NFs writing "disjoint" IP
#: fields still collide on the checksum and must not be XOR-merged.
DERIVED_WRITES: Dict[str, FrozenSet[str]] = {
    f: frozenset({"ip.checksum"})
    for f in ("ip.src", "ip.dst", "ip.proto", "ip.ttl", "ip.tos",
              "ip.id", "ip.len")
}

#: Fields implicitly written by any size-changing element: resizing
#: the payload rewrites the length fields, and ``ip.len`` drags
#: ``ip.checksum`` along (the derived rule above).
RESIZE_IMPLIED_WRITES: FrozenSet[str] = frozenset(
    {"ip.len", "ip.checksum", "l4.len", "payload"}
)


def field_region(field_name: str) -> str:
    """The coarse region (``"header"``/``"payload"``) of a field."""
    try:
        return PACKET_FIELDS[field_name]
    except KeyError:
        raise ValueError(
            f"unknown packet field {field_name!r}; known fields: "
            f"{sorted(PACKET_FIELDS)}"
        ) from None


class TrafficClass(enum.Enum):
    """Element role taxonomy used by the synthesis re-ordering rules."""

    SOURCE = "source"        # injects packets (FromDevice)
    SINK = "sink"            # terminates packets (ToDevice, Discard)
    CLASSIFIER = "classifier"  # reads fields, routes to output ports
    MODIFIER = "modifier"    # rewrites header and/or payload
    SHAPER = "shaper"        # delays/schedules (queues, raters)
    FILTER = "filter"        # may drop packets
    OBSERVER = "observer"    # read-only (counters, probes)


@dataclass(frozen=True)
class ActionProfile:
    """Which packet regions an element touches (Table II, per element).

    ``adds_removes_bits`` marks size-changing elements (encapsulation,
    compression); they are the most restrictive for parallelization.

    ``reads_fields``/``writes_fields`` optionally refine the region
    flags to exact field sets drawn from :data:`PACKET_FIELDS`.  A
    ``None`` field set means *undeclared*: the calculus falls back to
    region-level reasoning for that direction, so third-party elements
    that only set the coarse flags keep the conservative Table III
    behavior.  Declared fields must stay inside the declared regions
    (field granularity may only *refine* a region claim, never extend
    it) — this is what makes the field calculus a monotone refinement.
    """

    reads_header: bool = False
    reads_payload: bool = False
    writes_header: bool = False
    writes_payload: bool = False
    adds_removes_bits: bool = False
    drops: bool = False
    reads_fields: Optional[FrozenSet[str]] = None
    writes_fields: Optional[FrozenSet[str]] = None

    def __post_init__(self):
        for attr in ("reads_fields", "writes_fields"):
            value = getattr(self, attr)
            if value is not None and not isinstance(value, frozenset):
                object.__setattr__(self, attr, frozenset(value))
        for field_name in (self.reads_fields or ()):
            region = field_region(field_name)
            covered = (self.reads_header if region == "header"
                       else self.reads_payload)
            if not covered:
                raise ValueError(
                    f"declared read field {field_name!r} lies in the "
                    f"{region} region but the profile does not read it"
                )
        for field_name in (self.writes_fields or ()):
            region = field_region(field_name)
            covered = self.adds_removes_bits or (
                self.writes_header if region == "header"
                else self.writes_payload
            )
            if not covered:
                raise ValueError(
                    f"declared write field {field_name!r} lies in the "
                    f"{region} region but the profile does not write it"
                )

    def union(self, other: "ActionProfile") -> "ActionProfile":
        """Combine profiles (the profile of a composed pipeline)."""
        def union_fields(mine: Optional[FrozenSet[str]],
                         theirs: Optional[FrozenSet[str]]):
            if mine is None or theirs is None:
                return None
            return mine | theirs

        return ActionProfile(
            reads_header=self.reads_header or other.reads_header,
            reads_payload=self.reads_payload or other.reads_payload,
            writes_header=self.writes_header or other.writes_header,
            writes_payload=self.writes_payload or other.writes_payload,
            adds_removes_bits=self.adds_removes_bits or other.adds_removes_bits,
            drops=self.drops or other.drops,
            reads_fields=union_fields(self.effective_read_fields(),
                                      other.effective_read_fields()),
            writes_fields=union_fields(self.effective_write_fields(),
                                       other.effective_write_fields()),
        )

    @property
    def writes(self) -> bool:
        return self.writes_header or self.writes_payload or self.adds_removes_bits

    @property
    def reads(self) -> bool:
        return self.reads_header or self.reads_payload

    def read_regions(self) -> Set[str]:
        """The coarse regions (``"header"``/``"payload"``) read."""
        regions: Set[str] = set()
        if self.reads_header:
            regions.add("header")
        if self.reads_payload:
            regions.add("payload")
        return regions

    def write_regions(self) -> Set[str]:
        """The coarse regions written; a size change writes both."""
        regions: Set[str] = set()
        if self.writes_header or self.adds_removes_bits:
            regions.add("header")
        if self.writes_payload or self.adds_removes_bits:
            regions.add("payload")
        return regions

    def effective_read_fields(self) -> Optional[FrozenSet[str]]:
        """The field-level read set, or None when unknown.

        A profile that reads nothing at region level has a *known
        empty* field set even without declarations; a region reader
        without field declarations is unknown (``None``).
        """
        if self.reads_fields is not None:
            return self.reads_fields
        if not self.reads:
            return frozenset()
        return None

    def effective_write_fields(self) -> Optional[FrozenSet[str]]:
        """The field-level write set with derived fields, or None.

        Closes the declared set under the derived-field rules: size
        changes imply the length/checksum fields
        (:data:`RESIZE_IMPLIED_WRITES`), and IP-header writes imply
        ``ip.checksum`` (:data:`DERIVED_WRITES`).
        """
        if self.writes_fields is None:
            if not self.writes:
                return frozenset()
            return None
        closed = set(self.writes_fields)
        if self.adds_removes_bits:
            closed |= RESIZE_IMPLIED_WRITES
        for field_name in tuple(closed):
            closed |= DERIVED_WRITES.get(field_name, frozenset())
        return frozenset(closed)


@dataclass(frozen=True)
class PortSpec:
    """Number of input and output ports an element exposes."""

    inputs: int = 1
    outputs: int = 1


class SharedTables:
    """Deep copies share the attributes named in ``shared_tables``.

    :meth:`~repro.elements.graph.ElementGraph.clone` deep-copies
    elements so that profiling traffic cannot pollute the original.
    Compiled lookup structures (rule lists, hash tables, automata) are
    only read once built, and a memo of pure results (the firewall
    matcher's verdicts) gives every clone the answers it would compute
    itself, so copying either is pure cost: classes that hold them name
    those attributes here.  Every other attribute, counters and
    per-flow state included, is deep-copied as usual.
    """

    shared_tables: Tuple[str, ...] = ()

    def __deepcopy__(self, memo):
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        shared = self.shared_tables
        for name, value in self.__dict__.items():
            clone.__dict__[name] = (value if name in shared
                                    else copy.deepcopy(value, memo))
        return clone


class Element(SharedTables):
    """Base packet-processing element.

    Subclasses implement :meth:`process`, returning a mapping from
    output-port index to the batch pushed out of that port.  Elements
    are stateless unless they set ``is_stateful`` (which constrains
    both synthesis re-ordering and GPU offloading).
    """

    #: Default role; subclasses override.
    traffic_class: TrafficClass = TrafficClass.OBSERVER
    #: Default action profile; subclasses override.
    actions: ActionProfile = ActionProfile()
    #: Whether the element keeps per-flow state.
    is_stateful: bool = False
    #: Whether a GPU implementation exists (see OffloadableElement).
    offloadable: bool = False
    #: Whether applying the element twice equals applying it once.
    #: Only idempotent elements may be de-duplicated by the synthesizer.
    idempotent: bool = False

    def __init__(self, name: Optional[str] = None,
                 ports: PortSpec = PortSpec()):
        self.uid = next(_element_ids)
        self.name = name or f"{type(self).__name__}@{self.uid}"
        self.ports = ports
        # Runtime counters (inputs to the runtime profiler).
        self.packets_processed = 0
        self.packets_dropped = 0
        self.port_packet_counts: Dict[int, int] = {
            port: 0 for port in range(ports.outputs)
        }

    # ------------------------------------------------------------------
    # Functional interface
    # ------------------------------------------------------------------
    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        """Process ``batch``; return {output port: batch}.

        Packets marked dropped must be routed to no port (they simply
        disappear from the outputs); the base class bookkeeping in
        :meth:`push` accounts for them.
        """
        raise NotImplementedError

    def push(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        """Process with bookkeeping (the entry point callers use)."""
        incoming = len(batch.live_packets)
        outputs = self.process(batch)
        outgoing = 0
        for port, out_batch in outputs.items():
            if port >= self.ports.outputs:
                raise ValueError(
                    f"{self.name} pushed to nonexistent port {port}"
                )
            live = len(out_batch.live_packets)
            outgoing += live
            self.port_packet_counts[port] = (
                self.port_packet_counts.get(port, 0) + live
            )
        self.packets_processed += incoming
        self.packets_dropped += max(0, incoming - outgoing)
        return outputs

    # ------------------------------------------------------------------
    # Metadata interface (used by NFCompass algorithms)
    # ------------------------------------------------------------------
    def signature(self) -> Hashable:
        """Deduplication identity.

        Two elements with equal signatures perform the same computation
        on any packet and may be merged by the NF synthesizer.  The
        default signature is unique per instance (never deduplicable);
        deduplicable elements override this with their configuration.
        """
        return ("unique", self.uid)

    def cost_hints(self) -> Dict[str, float]:
        """Parameters the performance model may need (e.g. rule count)."""
        return {}

    @property
    def kind(self) -> str:
        """Stable class-name key used by the cost model tables."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
