"""Stateful (cross-packet) deep packet inspection.

The paper's stateful-processing discussion (Section III.B.1b) is about
exactly this workload: an IDS that must detect patterns *spanning
packet boundaries* has to process each flow's packets in order,
carrying matcher state from packet to packet — which is why offloaded
completions must be re-ordered and buffered.

:class:`StatefulPatternMatch` carries the Aho–Corasick automaton state
per flow in a :class:`~repro.net.flow.FlowTable` and reassembles TCP
segments by byte offset before scanning, so a signature split across
two TCP segments is still detected — the capability the stateless
matcher provably lacks (see the tests).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence

from repro.elements.element import ActionProfile, TrafficClass
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement, OffloadTraits
from repro.elements.standard import CheckIPHeader
from repro.net.batch import PacketBatch
from repro.net.flow import FiveTuple, FlowTable
from repro.nf.base import NetworkFunction
from repro.nf.dpi import AhoCorasick, MatchVerdict, _pattern_set


class StatefulPatternMatch(OffloadableElement):
    """Flow-stateful Aho–Corasick scanner.

    Packets are released per flow in seqno order (out-of-order arrivals
    buffer in the reassembler); each flow's automaton state persists
    between packets, so patterns that straddle packet boundaries match.
    Stateful elements are CPU-pinned (``offloadable = False``): the
    paper's characterization shows the buffering/ordering cost makes
    accelerator offload of stateful processing unattractive.
    """

    traffic_class = TrafficClass.OBSERVER
    actions = ActionProfile(reads_payload=True)
    is_stateful = True
    offloadable = False
    traits = OffloadTraits(
        h2d_bytes_per_packet=1.0,
        d2h_bytes_per_packet=0.05,
        relative=True,
        divergent=True,
        compute_intensity=2.5,
    )

    def __init__(self, patterns: Sequence[bytes],
                 pattern_set_id: str = "stateful",
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.automaton = AhoCorasick(patterns)
        self.pattern_set_id = pattern_set_id
        self.flows = FlowTable()
        # TCP byte-offset reassembly: segments are contiguous in the
        # sequence-number space (seq advances by payload length), so
        # ordering is well-defined per flow even when multiple flows
        # interleave.  Non-TCP packets have no stream semantics and
        # scan in arrival order.
        self._tcp_expected: Dict[FiveTuple, int] = {}
        self._tcp_pending: Dict[FiveTuple, Dict[int, object]] = {}
        self.buffered_bytes = 0
        self.max_buffered_bytes = 0
        self.match_count = 0
        self.cross_packet_matches = 0

    def _scan(self, packet) -> None:
        state_record = self.flows.observe(packet)
        ac_state = state_record.user_state.get("ac_state", 0)
        entered_mid_pattern = ac_state != 0
        matched = False
        matched_early = False
        state = ac_state
        for offset, byte in enumerate(packet.payload):
            state = self.automaton.step(state, byte)
            if self.automaton._output[state]:
                matched = True
                # A match completing before a full pattern could fit in
                # this packet must have started in an earlier packet.
                shortest = min(len(self.automaton.patterns[i])
                               for i in self.automaton._output[state])
                if entered_mid_pattern and offset + 1 < shortest:
                    matched_early = True
        state_record.user_state["ac_state"] = state
        if matched:
            packet.annotations["dpi_match"] = True
            self.match_count += 1
            if matched_early:
                self.cross_packet_matches += 1
                packet.annotations["dpi_cross_packet"] = True

    def _offer(self, packet) -> List:
        """In-order release: TCP segments by byte offset, rest as-is."""
        if not packet.is_tcp:
            return [packet]
        key = FiveTuple.of(packet)
        expected = self._tcp_expected.setdefault(key, packet.l4.seq)
        if packet.l4.seq < expected:
            return [packet]  # duplicate/retransmission: pass through
        pending = self._tcp_pending.setdefault(key, {})
        pending[packet.l4.seq] = packet
        self.buffered_bytes += packet.wire_len
        self.max_buffered_bytes = max(self.max_buffered_bytes,
                                      self.buffered_bytes)
        released: List = []
        while expected in pending:
            ready = pending.pop(expected)
            self.buffered_bytes -= ready.wire_len
            released.append(ready)
            expected += max(1, len(ready.payload))
        self._tcp_expected[key] = expected
        return released

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        released: List = []
        for packet in batch.live_packets:
            released.extend(self._offer(packet))
        for packet in released:
            self._scan(packet)
        out = PacketBatch(released, creation_time=batch.creation_time)
        return {0: out}

    def pending_count(self) -> int:
        """Segments currently held back waiting for earlier bytes."""
        return sum(len(p) for p in self._tcp_pending.values())

    def flush(self) -> List:
        """Release (and scan) everything still buffered."""
        leftovers: List = []
        for pending in self._tcp_pending.values():
            for seq in sorted(pending):
                leftovers.append(pending[seq])
        self._tcp_pending.clear()
        self._tcp_expected.clear()
        self.buffered_bytes = 0
        for packet in leftovers:
            self._scan(packet)
        return leftovers

    def signature(self) -> Hashable:
        return ("unique", self.uid)  # stateful: never deduplicate

    def cost_hints(self) -> Dict[str, float]:
        return {
            "ac_states": float(self.automaton.state_count),
            "patterns": float(len(self.automaton.patterns)),
        }


class StatefulIDS(NetworkFunction):
    """IDS with cross-packet signature detection.

    Same Table II profile as the stateless IDS (reads header+payload,
    drops on alert) but flow-stateful; NFCompass pins its matcher to
    the CPU and the engine charges the reassembly buffering when
    completions arrive out of order.
    """

    nf_type = "stateful-ids"
    actions = ActionProfile(
        reads_header=True, reads_payload=True, drops=True,
        reads_fields={"eth.type", "ip.src", "ip.dst", "ip.proto",
                      "l4.ports", "l4.seq", "payload"},
    )
    stateful = True

    def __init__(self, patterns: Optional[Sequence[bytes]] = None,
                 name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.patterns = _pattern_set(patterns)

    def build_core(self) -> ElementGraph:
        graph = ElementGraph(name=f"{self.name}/core")
        graph.chain(
            CheckIPHeader(name=f"{self.name}/check"),
            StatefulPatternMatch(self.patterns,
                                 pattern_set_id=f"{self.name}-set",
                                 name=f"{self.name}/match"),
            MatchVerdict(drop_on_match=True,
                         name=f"{self.name}/verdict"),
        )
        return graph


__all__ = ["StatefulPatternMatch", "StatefulIDS"]
