"""Deep packet inspection: Aho–Corasick multi-pattern matching and a
DFA-based regular-expression engine.

The paper's DPI/IDS uses the Aho–Corasick algorithm for string sets
(as implemented in Snap) and a deterministic finite automaton for
regular expressions (Section III.A.2).  Both are implemented here from
scratch: AC with goto/failure/output functions, and a small regex
compiler (literals, ``.``, character classes, ``* + ?``, alternation,
grouping) going Thompson NFA → subset-construction DFA.

The boolean scan a stateless DPI/IDS runs per packet,
:meth:`AhoCorasick.contains_any`, is one search of a compiled stdlib
:mod:`re` alternation of the escaped patterns: same verdicts, the scan
in C.  The automaton itself serves :meth:`AhoCorasick.search`, the
cross-packet walk of the stateful IDS (:meth:`AhoCorasick.step`), and
the tests' reference for ``contains_any``.  On payloads drawn only
from the patterns' alphabet the alternation is about 1.1-1.3x slower
than the walk; no workload sends such traffic.  The cost model prices
DPI from the traffic's declared ``TrafficSpec.match_profile`` (the
Fig. 8d no/partial/full match densities), not from the scan's work.
Clones of an automaton share its compiled tables.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

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
        the reference for :meth:`search`'s inlined walk and for the
        verdicts of :meth:`contains_any`.
        """
        while state and byte not in self._goto[state]:
            state = self._fail[state]
        return self._goto[state].get(byte, 0)

    def search(self, data: bytes) -> List[Tuple[int, int]]:
        """Return [(end offset, pattern index)] of every occurrence."""
        goto, fail, output = self._goto, self._fail, self._output
        matches: List[Tuple[int, int]] = []
        state = 0
        for offset, byte in enumerate(data):
            nxt = goto[state].get(byte)
            while nxt is None and state:
                state = fail[state]
                nxt = goto[state].get(byte)
            state = 0 if nxt is None else nxt
            for pattern_index in output[state]:
                matches.append((offset + 1, pattern_index))
        return matches

    def contains_any(self, data: bytes) -> bool:
        """True if any pattern occurs in ``data``."""
        return self._alternation.search(data) is not None


# ---------------------------------------------------------------------------
# Regex -> NFA -> DFA
# ---------------------------------------------------------------------------

_EPSILON = -1
_ANY = -2


class _NFA:
    """Thompson-construction NFA fragment store."""

    def __init__(self):
        # transitions[state] = list of (symbol, next_state); symbol is a
        # byte value, _ANY, _EPSILON, or a frozenset of byte values.
        self.transitions: List[List[Tuple[object, int]]] = []

    def new_state(self) -> int:
        self.transitions.append([])
        return len(self.transitions) - 1

    def add(self, src: int, symbol: object, dst: int) -> None:
        self.transitions[src].append((symbol, dst))


class RegexSyntaxError(ValueError):
    """Raised on malformed pattern text."""


class _Parser:
    """Recursive-descent parser building an NFA fragment.

    Grammar:  alt := cat ('|' cat)* ; cat := rep+ ;
              rep := atom ('*'|'+'|'?')? ;
              atom := literal | '.' | '[' class ']' | '(' alt ')'
    """

    def __init__(self, pattern: str, nfa: _NFA):
        self.pattern = pattern
        self.pos = 0
        self.nfa = nfa

    def parse(self) -> Tuple[int, int]:
        start, end = self._alt()
        if self.pos != len(self.pattern):
            raise RegexSyntaxError(
                f"unexpected {self.pattern[self.pos]!r} at {self.pos}"
            )
        return start, end

    def _peek(self) -> Optional[str]:
        if self.pos < len(self.pattern):
            return self.pattern[self.pos]
        return None

    def _alt(self) -> Tuple[int, int]:
        branches = [self._cat()]
        while self._peek() == "|":
            self.pos += 1
            branches.append(self._cat())
        if len(branches) == 1:
            return branches[0]
        start = self.nfa.new_state()
        end = self.nfa.new_state()
        for b_start, b_end in branches:
            self.nfa.add(start, _EPSILON, b_start)
            self.nfa.add(b_end, _EPSILON, end)
        return start, end

    def _cat(self) -> Tuple[int, int]:
        fragments: List[Tuple[int, int]] = []
        while self._peek() not in (None, "|", ")"):
            fragments.append(self._rep())
        if not fragments:
            state = self.nfa.new_state()
            return state, state
        start, end = fragments[0]
        for nxt_start, nxt_end in fragments[1:]:
            self.nfa.add(end, _EPSILON, nxt_start)
            end = nxt_end
        return start, end

    def _rep(self) -> Tuple[int, int]:
        start, end = self._atom()
        suffix = self._peek()
        if suffix not in ("*", "+", "?"):
            return start, end
        self.pos += 1
        new_start = self.nfa.new_state()
        new_end = self.nfa.new_state()
        self.nfa.add(new_start, _EPSILON, start)
        self.nfa.add(end, _EPSILON, new_end)
        if suffix in ("*", "?"):
            self.nfa.add(new_start, _EPSILON, new_end)
        if suffix in ("*", "+"):
            self.nfa.add(end, _EPSILON, start)
        return new_start, new_end

    def _atom(self) -> Tuple[int, int]:
        char = self._peek()
        if char is None:
            raise RegexSyntaxError("unexpected end of pattern")
        if char == "(":
            self.pos += 1
            start, end = self._alt()
            if self._peek() != ")":
                raise RegexSyntaxError("unbalanced parenthesis")
            self.pos += 1
            return start, end
        if char == "[":
            return self._char_class()
        if char in ")*+?|]":
            raise RegexSyntaxError(f"unexpected {char!r} at {self.pos}")
        self.pos += 1
        if char == ".":
            symbol: object = _ANY
        elif char == "\\":
            escaped = self._peek()
            if escaped is None:
                raise RegexSyntaxError("dangling escape")
            self.pos += 1
            symbol = ord(escaped)
        else:
            symbol = ord(char)
        start = self.nfa.new_state()
        end = self.nfa.new_state()
        self.nfa.add(start, symbol, end)
        return start, end

    def _char_class(self) -> Tuple[int, int]:
        self.pos += 1  # consume '['
        members: Set[int] = set()
        if self._peek() == "^":
            raise RegexSyntaxError("negated classes are not supported")
        while self._peek() not in (None, "]"):
            first = self.pattern[self.pos]
            self.pos += 1
            if self._peek() == "-" and self.pos + 1 < len(self.pattern) \
                    and self.pattern[self.pos + 1] != "]":
                self.pos += 1
                last = self.pattern[self.pos]
                self.pos += 1
                if ord(last) < ord(first):
                    raise RegexSyntaxError("reversed range in class")
                members.update(range(ord(first), ord(last) + 1))
            else:
                members.add(ord(first))
        if self._peek() != "]":
            raise RegexSyntaxError("unterminated character class")
        self.pos += 1
        if not members:
            raise RegexSyntaxError("empty character class")
        start = self.nfa.new_state()
        end = self.nfa.new_state()
        self.nfa.add(start, frozenset(members), end)
        return start, end


class DFARegex(SharedTables):
    """A regex compiled to a DFA via subset construction.

    Matching semantics are *unanchored containment*: :meth:`search`
    reports whether the pattern occurs anywhere in the input, which is
    what an IDS rule needs.
    """

    shared_tables = ("_dfa", "_accepting")

    def __init__(self, pattern: str):
        self.pattern = pattern
        nfa = _NFA()
        start, accept = _Parser(pattern, nfa).parse()
        self._compile(nfa, start, accept)

    def _compile(self, nfa: _NFA, start: int, accept: int) -> None:
        def closure(states: FrozenSet[int]) -> FrozenSet[int]:
            stack = list(states)
            seen = set(states)
            while stack:
                state = stack.pop()
                for symbol, nxt in nfa.transitions[state]:
                    if symbol == _EPSILON and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return frozenset(seen)

        # Unanchored search: the start state loops on any byte.
        start_set = closure(frozenset({start}))
        dfa_states: Dict[FrozenSet[int], int] = {start_set: 0}
        self._dfa: List[Dict[int, int]] = [{}]
        self._accepting: List[bool] = [accept in start_set]
        worklist = deque([start_set])
        while worklist:
            current = worklist.popleft()
            current_id = dfa_states[current]
            for byte in range(256):
                targets: Set[int] = set()
                for state in current:
                    for symbol, nxt in nfa.transitions[state]:
                        if symbol == _EPSILON:
                            continue
                        if symbol == _ANY or symbol == byte or (
                                isinstance(symbol, frozenset)
                                and byte in symbol):
                            targets.add(nxt)
                # Unanchored: every step also (re)starts a match attempt.
                target_set = closure(frozenset(targets) | {start})
                if target_set not in dfa_states:
                    dfa_states[target_set] = len(self._dfa)
                    self._dfa.append({})
                    self._accepting.append(accept in target_set)
                    worklist.append(target_set)
                target_id = dfa_states[target_set]
                if target_id != 0:
                    self._dfa[current_id][byte] = target_id

    @property
    def state_count(self) -> int:
        return len(self._dfa)

    def search(self, data: bytes) -> bool:
        """True if the pattern occurs anywhere in ``data``."""
        state = 0
        if self._accepting[state]:
            return True
        for byte in data:
            state = self._dfa[state].get(byte, 0)
            if self._accepting[state]:
                return True
        return False


# ---------------------------------------------------------------------------
# DPI elements and NFs
# ---------------------------------------------------------------------------


class PatternMatch(OffloadableElement):
    """Offloadable payload scanner (AC strings + optional DFA regexes).

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
                 regexes: Sequence[str] = (),
                 pattern_set_id: str = "default",
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.automaton = AhoCorasick(patterns)
        self.regexes = [DFARegex(r) for r in regexes]
        self.pattern_set_id = pattern_set_id
        self.match_count = 0

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            matched = self.automaton.contains_any(packet.payload)
            if not matched:
                matched = any(r.search(packet.payload) for r in self.regexes)
            if matched:
                packet.annotations["dpi_match"] = True
                self.match_count += 1
        return {0: batch}

    def signature(self) -> Hashable:
        return ("PatternMatch", self.pattern_set_id)

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
                 regexes: Sequence[str] = (),
                 name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.patterns = _pattern_set(patterns)
        self.regexes = list(regexes)

    def build_core(self) -> ElementGraph:
        graph = ElementGraph(name=f"{self.name}/core")
        graph.chain(
            CheckIPHeader(name=f"{self.name}/check"),
            PatternMatch(self.patterns, self.regexes,
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
            PatternMatch(self.patterns, self.regexes,
                         pattern_set_id=f"{self.nf_type}-set",
                         name=f"{self.name}/match"),
            MatchVerdict(drop_on_match=True, name=f"{self.name}/verdict"),
        )
        return graph


__all__ = [
    "AhoCorasick",
    "DFARegex",
    "RegexSyntaxError",
    "PatternMatch",
    "MatchVerdict",
    "DeepPacketInspector",
    "IntrusionDetectionSystem",
]
