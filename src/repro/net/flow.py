"""Flows: five-tuple connection keys and an LRU flow table.

Stateful NFs (IDS, traffic classification) keep per-connection state
in a :class:`FlowTable` keyed by :class:`FiveTuple`.  The stateful IDS
(:class:`~repro.nf.stateful_dpi.StatefulPatternMatch`) releases each
flow's segments in TCP byte order itself.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional

from repro.net.packet import Packet


class FiveTuple(NamedTuple):
    """Canonical connection key: (src, dst, proto, sport, dport)."""

    src: object
    dst: object
    proto: int
    src_port: int
    dst_port: int

    @classmethod
    def of(cls, packet: Packet) -> "FiveTuple":
        return cls(*packet.five_tuple())

    def reversed(self) -> "FiveTuple":
        """The key of the reverse direction of the same connection."""
        return FiveTuple(self.dst, self.src, self.proto,
                         self.dst_port, self.src_port)


@dataclass
class FlowState:
    """Mutable per-flow record stored in a :class:`FlowTable`."""

    key: FiveTuple
    packets_seen: int = 0
    bytes_seen: int = 0
    last_seen: float = 0.0
    user_state: Dict[str, object] = field(default_factory=dict)


class FlowTable:
    """An LRU-evicting flow table keyed by five-tuple.

    ``capacity`` bounds memory as a real middlebox flow table would;
    the eviction count is exposed because table churn is part of the
    stateful-processing overhead story.
    """

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("flow table capacity must be positive")
        self.capacity = capacity
        self._table: "OrderedDict[FiveTuple, FlowState]" = OrderedDict()
        self.evictions = 0
        self.lookups = 0
        self.inserts = 0

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: FiveTuple) -> bool:
        return key in self._table

    def lookup(self, key: FiveTuple) -> Optional[FlowState]:
        """Return the flow state for ``key``, refreshing its LRU position."""
        self.lookups += 1
        state = self._table.get(key)
        if state is not None:
            self._table.move_to_end(key)
        return state

    def observe(self, packet: Packet) -> FlowState:
        """Record ``packet`` against its flow, creating the flow if new."""
        key = FiveTuple.of(packet)
        state = self.lookup(key)
        if state is None:
            state = FlowState(key=key)
            self._table[key] = state
            self.inserts += 1
            if len(self._table) > self.capacity:
                self._table.popitem(last=False)
                self.evictions += 1
        state.packets_seen += 1
        state.bytes_seen += packet.wire_len
        state.last_seen = packet.arrival_time
        return state

    def remove(self, key: FiveTuple) -> None:
        self._table.pop(key, None)

    def flows(self) -> List[FlowState]:
        return list(self._table.values())
