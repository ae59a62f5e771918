"""Deep packet inspection: Aho–Corasick multi-pattern matching.

The paper's DPI/IDS uses the Aho–Corasick algorithm for string sets
(as implemented in Snap; Section III.A.2).  The automaton is built
here from scratch, with goto/failure/output functions.

The boolean scan a stateless DPI/IDS runs per packet,
:meth:`AhoCorasick.contains_any`, is one search of a compiled stdlib
:mod:`re` alternation of the escaped patterns: same verdicts, the scan
in C.  The automaton itself serves the cross-packet walk of the
stateful IDS (:meth:`AhoCorasick.step`) and the tests' reference for
``contains_any``.  On payloads drawn only from the patterns' alphabet
the alternation is about 1.1-1.3x slower than the walk; no workload
sends such traffic.  The cost model prices DPI from the traffic's
declared ``TrafficSpec.match_profile`` (the Fig. 8d no/partial/full
match densities), not from the scan's work.  Clones of an automaton
share its compiled tables.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Dict, Hashable, List, Optional, Sequence

from repro.elements.element import ActionProfile, SharedTables, TrafficClass
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement, OffloadTraits
from repro.elements.standard import CheckIPHeader
from repro.net.batch import PacketBatch
from repro.nf.base import NetworkFunction

# ---------------------------------------------------------------------------
# Aho–Corasick automaton
# ---------------------------------------------------------------------------


class AhoCorasick(SharedTables):
    """Classic Aho–Corasick automaton over byte strings.

    :meth:`contains_any` searches a compiled alternation of the
    patterns instead of walking the automaton.
    """

    shared_tables = ("patterns", "_goto", "_fail", "_output",
                     "_alternation")

    def __init__(self, patterns: Sequence[bytes]):
        if not patterns:
            raise ValueError("pattern set must not be empty")
        self.patterns: List[bytes] = list(patterns)
        # goto: state -> {byte: state}; outputs: state -> pattern indexes
        self._goto: List[Dict[int, int]] = [{}]
        self._fail: List[int] = [0]
        self._output: List[List[int]] = [[]]
        self._build()
        # Patterns are arbitrary bytes: every alternative is escaped,
        # and _build has already rejected the empty pattern.
        self._alternation = re.compile(
            b"|".join(re.escape(pattern) for pattern in self.patterns))

    def _build(self) -> None:
        for index, pattern in enumerate(self.patterns):
            if not pattern:
                raise ValueError("empty pattern not allowed")
            state = 0
            for byte in pattern:
                nxt = self._goto[state].get(byte)
                if nxt is None:
                    nxt = len(self._goto)
                    self._goto.append({})
                    self._fail.append(0)
                    self._output.append([])
                    self._goto[state][byte] = nxt
                state = nxt
            self._output[state].append(index)
        # BFS failure links
        queue: deque = deque()
        for byte, state in self._goto[0].items():
            self._fail[state] = 0
            queue.append(state)
        while queue:
            current = queue.popleft()
            for byte, nxt in self._goto[current].items():
                queue.append(nxt)
                fallback = self._fail[current]
                while fallback and byte not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[nxt] = self._goto[fallback].get(byte, 0)
                if self._fail[nxt] == nxt:
                    self._fail[nxt] = 0
                self._output[nxt].extend(self._output[self._fail[nxt]])

    @property
    def state_count(self) -> int:
        return len(self._goto)

    def step(self, state: int, byte: int) -> int:
        """One transition (with failure-link walking).

        The stateful IDS walks a flow with it across packets, and it is
        the reference for the verdicts of :meth:`contains_any`.
        """
        while state and byte not in self._goto[state]:
            state = self._fail[state]
        return self._goto[state].get(byte, 0)

    def contains_any(self, data: bytes) -> bool:
        """True if any pattern occurs in ``data``."""
        return self._alternation.search(data) is not None


# ---------------------------------------------------------------------------
# DPI elements and NFs
# ---------------------------------------------------------------------------


class PatternMatch(OffloadableElement):
    """Offloadable payload scanner over an Aho–Corasick string set.

    Annotates matching packets with ``dpi_match``; the IDS variant
    downstream drops them.  The whole payload crosses PCIe host-to-
    device; only verdicts come back.
    """

    traffic_class = TrafficClass.OBSERVER
    idempotent = True
    actions = ActionProfile(
        reads_payload=True,
        reads_fields={"payload"},
    )
    traits = OffloadTraits(
        h2d_bytes_per_packet=1.0,
        d2h_bytes_per_packet=0.01,
        relative=True,
        divergent=True,  # per-packet match depth differs: warp divergence
        compute_intensity=2.5,
    )

    def __init__(self, patterns: Sequence[bytes],
                 pattern_set_id: str = "default",
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.automaton = AhoCorasick(patterns)
        self.pattern_set_id = pattern_set_id
        self.match_count = 0

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            if self.automaton.contains_any(packet.payload):
                packet.annotations["dpi_match"] = True
                self.match_count += 1
        return {0: batch}

    def signature(self) -> Hashable:
        # The verdict depends on the patterns, not on the set's name:
        # two scanners dedup only when both sets are the same.
        return ("PatternMatch", self.pattern_set_id,
                frozenset(self.automaton.patterns))

    def cost_hints(self) -> Dict[str, float]:
        return {
            "ac_states": float(self.automaton.state_count),
            "patterns": float(len(self.automaton.patterns)),
        }


class MatchVerdict(OffloadableElement):
    """Act on DPI matches: drop (IDS) or just log (classification).

    Verdict handling is branchy control logic over per-packet flags;
    offloading it would only add a kernel launch and a PCIe round trip
    per batch, so it declares itself CPU-only.
    """

    traffic_class = TrafficClass.FILTER
    actions = ActionProfile(drops=True)
    offloadable = False
    traits = OffloadTraits(h2d_bytes_per_packet=0.01,
                           d2h_bytes_per_packet=0.01,
                           relative=True, compute_intensity=0.1)

    def __init__(self, drop_on_match: bool = True,
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.drop_on_match = drop_on_match
        self.alerts = 0

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        survivors = []
        for packet in batch.live_packets:
            if packet.annotations.get("dpi_match"):
                self.alerts += 1
                if self.drop_on_match:
                    packet.mark_dropped("IDS alert")
                    continue
            survivors.append(packet)
        return {0: PacketBatch(survivors, creation_time=batch.creation_time)}


def _pattern_set(patterns: Optional[Sequence[bytes]]) -> List[bytes]:
    """``patterns`` as a list, or the default set when it is ``None``.

    An explicit empty set is rejected, as :class:`AhoCorasick` rejects
    it.
    """
    if patterns is None:
        from repro.traffic.dpi_profiles import make_pattern_set
        return make_pattern_set()
    patterns = list(patterns)
    if not patterns:
        raise ValueError("pattern set must not be empty")
    return patterns


class DeepPacketInspector(NetworkFunction):
    """DPI NF: pattern-match and annotate, never drop (classification)."""

    nf_type = "dpi"
    actions = ActionProfile(
        reads_header=True, reads_payload=True,
        reads_fields={"eth.type", "ip.src", "ip.dst", "ip.proto",
                      "l4.ports", "payload"},
    )

    def __init__(self, patterns: Optional[Sequence[bytes]] = None,
                 name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.patterns = _pattern_set(patterns)

    def build_core(self) -> ElementGraph:
        graph = ElementGraph(name=f"{self.name}/core")
        graph.chain(
            CheckIPHeader(name=f"{self.name}/check"),
            PatternMatch(self.patterns,
                         pattern_set_id=f"{self.nf_type}-set",
                         name=f"{self.name}/match"),
            MatchVerdict(drop_on_match=False, name=f"{self.name}/log"),
        )
        return graph


class IntrusionDetectionSystem(DeepPacketInspector):
    """IDS NF: like DPI but drops matching packets (Table II: Drop=Y)."""

    nf_type = "ids"
    actions = ActionProfile(
        reads_header=True, reads_payload=True, drops=True,
        reads_fields={"eth.type", "ip.src", "ip.dst", "ip.proto",
                      "l4.ports", "payload"},
    )

    def build_core(self) -> ElementGraph:
        graph = ElementGraph(name=f"{self.name}/core")
        graph.chain(
            CheckIPHeader(name=f"{self.name}/check"),
            PatternMatch(self.patterns,
                         pattern_set_id=f"{self.nf_type}-set",
                         name=f"{self.name}/match"),
            MatchVerdict(drop_on_match=True, name=f"{self.name}/verdict"),
        )
        return graph


__all__ = [
    "AhoCorasick",
    "PatternMatch",
    "MatchVerdict",
    "DeepPacketInspector",
    "IntrusionDetectionSystem",
]
