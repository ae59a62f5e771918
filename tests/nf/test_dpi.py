"""Unit and property tests for DPI: Aho-Corasick, DFA regex, NFs."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.net.batch import PacketBatch
from repro.net.packet import Packet
from repro.nf.dpi import (
    AhoCorasick,
    DFARegex,
    DeepPacketInspector,
    IntrusionDetectionSystem,
    MatchVerdict,
    PatternMatch,
    RegexSyntaxError,
)
from repro.nf.stateful_dpi import StatefulIDS


class TestAhoCorasick:
    def test_single_pattern_found(self):
        ac = AhoCorasick([b"abc"])
        assert ac.contains_any(b"xxabcxx")

    def test_no_match(self):
        ac = AhoCorasick([b"abc"])
        assert not ac.contains_any(b"xyzxyz")

    def test_overlapping_patterns(self):
        ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
        matches = ac.search(b"ushers")
        found = {ac.patterns[i] for _end, i in matches}
        assert found == {b"she", b"he", b"hers"}

    def test_match_offsets(self):
        ac = AhoCorasick([b"ab"])
        matches = ac.search(b"abab")
        assert [end for end, _ in matches] == [2, 4]

    def test_pattern_at_start_and_end(self):
        ac = AhoCorasick([b"start", b"end"])
        assert ac.contains_any(b"start middle")
        assert ac.contains_any(b"middle end")

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick([b""])

    def test_empty_pattern_set_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick([])

    def test_binary_patterns(self):
        ac = AhoCorasick([bytes([0, 1, 2]), bytes([255, 254])])
        assert ac.contains_any(bytes([9, 0, 1, 2, 9]))
        assert ac.contains_any(bytes([255, 254]))


@given(
    patterns=st.lists(st.binary(min_size=1, max_size=6), min_size=1,
                      max_size=8),
    haystack=st.binary(max_size=200),
)
@settings(max_examples=150)
def test_aho_corasick_matches_naive_search(patterns, haystack):
    ac = AhoCorasick(patterns)
    naive = set()
    for index, pattern in enumerate(patterns):
        start = 0
        while True:
            found = haystack.find(pattern, start)
            if found < 0:
                break
            naive.add((found + len(pattern), pattern))
            start = found + 1
    ac_matches = {(end, ac.patterns[i]) for end, i in ac.search(haystack)}
    assert ac_matches == naive


def _search_by_steps(ac, data):
    matches, state = [], 0
    for offset, byte in enumerate(data):
        state = ac.step(state, byte)
        matches.extend((offset + 1, index) for index in ac._output[state])
    return matches


def _contains_by_steps(ac, data):
    state = 0
    for byte in data:
        state = ac.step(state, byte)
        if ac._output[state]:
            return True
    return False


class TestAhoCorasickInlinedWalk:
    """``search`` inlines the goto/failure walk and ``contains_any``
    searches a compiled alternation; ``step`` is the reference for
    both verdicts."""

    @staticmethod
    def payloads():
        import random

        from repro.traffic.dpi_profiles import (
            MatchProfile,
            make_pattern_set,
            make_payload,
        )
        patterns = make_pattern_set()
        rng = random.Random(17)
        near_misses = b"".join(p[:-1] for p in patterns[:20])
        cases = {"random": bytes(rng.randrange(256) for _ in range(600)),
                 "near-miss": near_misses}
        for profile in MatchProfile:
            for length in (64, 700):
                cases[f"{profile.value}-{length}"] = make_payload(
                    rng, length, patterns, profile)
        return patterns, cases

    def test_verdicts_match_step(self):
        patterns, cases = self.payloads()
        ac = AhoCorasick(patterns)
        verdicts = set()
        for name, data in cases.items():
            for method, reference in (("contains_any", _contains_by_steps),
                                      ("search", _search_by_steps)):
                got = getattr(ac, method)(data)
                assert got == reference(ac, data), (name, method)
                if method == "contains_any":
                    verdicts.add(got)
        assert verdicts == {True, False}


#: Bytes with a meaning in a regular expression (or under re.VERBOSE),
#: whitespace and NUL: every alternative must be escaped.
_META = st.sampled_from(list(b".^$*+?{}[]()|\\-#&~ \t\n\r\x00"))


@st.composite
def pattern_sets(draw):
    """Arbitrary byte patterns, metacharacters weighted in, plus
    prefixes, suffixes and inner substrings of some of them."""
    byte = st.one_of(st.integers(min_value=0, max_value=255), _META)
    patterns = draw(st.lists(
        st.lists(byte, min_size=1, max_size=6).map(bytes),
        min_size=1, max_size=6))
    for pattern in list(patterns):
        if len(pattern) > 1 and draw(st.booleans()):
            start = draw(st.integers(0, len(pattern) - 1))
            end = draw(st.integers(start + 1, len(pattern)))
            patterns.append(pattern[start:end])
    return patterns


@st.composite
def scan_payloads(draw, patterns):
    """A pattern planted at offset 0 or at the end, a payload drawn
    only from the patterns' alphabet, or arbitrary bytes."""
    kind = draw(st.sampled_from(("start", "end", "alphabet", "any")))
    if kind == "alphabet":
        alphabet = sorted(set(b"".join(patterns)))
        return bytes(draw(st.lists(st.sampled_from(alphabet),
                                   max_size=80)))
    body = draw(st.binary(max_size=80))
    if kind == "start":
        return draw(st.sampled_from(patterns)) + body
    if kind == "end":
        return body + draw(st.sampled_from(patterns))
    return body


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_compiled_scan_matches_step_walk(data):
    """``contains_any`` (one ``re`` search) == the automaton walk."""
    patterns = data.draw(pattern_sets())
    payload = data.draw(scan_payloads(patterns))
    ac = AhoCorasick(patterns)
    assert ac.contains_any(payload) == _contains_by_steps(ac, payload)


class TestDFARegex:
    @pytest.mark.parametrize("pattern,text,expected", [
        ("abc", b"xxabcxx", True),
        ("abc", b"ab", False),
        ("a.c", b"azc", True),
        ("a.c", b"ac", False),
        ("ab*c", b"ac", True),
        ("ab*c", b"abbbbc", True),
        ("ab+c", b"ac", False),
        ("ab+c", b"abc", True),
        ("ab?c", b"ac", True),
        ("ab?c", b"abbc", False),
        ("a|b", b"zzz b zzz", True),
        ("a|b", b"zzz c zzz", False),
        ("cat|dog", b"hotdog", True),
        ("cat|dog", b"bird", False),
        ("(ab)+", b"xxababxx", True),
        ("[a-c]x", b"zbxz", True),
        ("[a-c]x", b"zdxz", False),
        ("[0-9]+", b"abc123", True),
        ("gr(e|a)y", b"the gray cat", True),
        ("gr(e|a)y", b"the grey cat", True),
        ("gr(e|a)y", b"the griy cat", False),
    ])
    def test_search_semantics(self, pattern, text, expected):
        assert DFARegex(pattern).search(text) == expected

    def test_unanchored_containment(self):
        regex = DFARegex("needle")
        assert regex.search(b"xxxx needle xxxx")
        assert regex.search(b"needle")
        assert not regex.search(b"needl")

    def test_escape(self):
        assert DFARegex(r"a\.b").search(b"a.b")
        assert not DFARegex(r"a\.b").search(b"axb")

    def test_syntax_errors(self):
        for bad in ("(", "a)", "[a", "*a", "a|*", "[z-a]", "[]"):
            with pytest.raises(RegexSyntaxError):
                DFARegex(bad)

    def test_state_count_positive(self):
        assert DFARegex("abc").state_count >= 2


@given(st.binary(max_size=60))
@settings(max_examples=100)
def test_dfa_agrees_with_re_module(text):
    pattern = "ab(c|d)+e?"
    ours = DFARegex(pattern).search(text)
    reference = re.search(pattern.encode(), text) is not None
    assert ours == reference


class TestPatternMatchElement:
    def test_annotates_matches(self):
        element = PatternMatch([b"attack"])
        hit = Packet(payload=b"an attack payload")
        miss = Packet(payload=b"benign traffic")
        element.push(PacketBatch([hit, miss]))
        assert hit.annotations.get("dpi_match")
        assert "dpi_match" not in miss.annotations
        assert element.match_count == 1

    def test_regex_fallback(self):
        element = PatternMatch([b"zzzz"], regexes=["ev[i1]l"])
        packet = Packet(payload=b"an ev1l payload")
        element.push(PacketBatch([packet]))
        assert packet.annotations.get("dpi_match")

    def test_signature_by_pattern_set_id(self):
        a = PatternMatch([b"x"], pattern_set_id="s1")
        b = PatternMatch([b"x"], pattern_set_id="s1")
        assert a.signature() == b.signature()

    def test_not_offloadable_verdict(self):
        assert not MatchVerdict().offloadable


class TestDPINFs:
    def test_dpi_never_drops(self):
        dpi = DeepPacketInspector(patterns=[b"match"])
        packets = [Packet(payload=b"this is a match", seqno=0),
                   Packet(payload=b"this is not", seqno=1)]
        out = dpi.process_packets(packets)
        assert len(out) == 2

    def test_ids_drops_matches(self):
        ids = IntrusionDetectionSystem(patterns=[b"exploit"])
        packets = [Packet(payload=b"an exploit here", seqno=0),
                   Packet(payload=b"all clear", seqno=1)]
        out = ids.process_packets(packets)
        assert len(out) == 1
        assert out[0].payload == b"all clear"

    @pytest.mark.parametrize("nf", [DeepPacketInspector,
                                    IntrusionDetectionSystem, StatefulIDS])
    def test_empty_pattern_set_rejected(self, nf):
        """An explicit ``[]`` is not "use the defaults"."""
        with pytest.raises(ValueError, match="must not be empty"):
            nf(patterns=[])

    def test_ids_alert_counter(self):
        ids = IntrusionDetectionSystem(patterns=[b"bad"])
        ids.process_packets([Packet(payload=b"bad bad bad")])
        verdicts = [e for e in ids.graph.elements().values()
                    if e.kind == "MatchVerdict"]
        assert verdicts[0].alerts == 1
