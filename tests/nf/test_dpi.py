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

    def test_transition_counter_increases(self):
        ac = AhoCorasick([b"needle"])
        before = ac.transitions_made
        ac.search(b"haystack" * 10)
        assert ac.transitions_made > before


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
    """``search`` and ``contains_any`` inline the goto/failure walk;
    ``step`` is the reference for their verdicts and their counts."""

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

    def test_verdicts_and_transition_counts_match_step(self):
        patterns, cases = self.payloads()
        verdicts = set()
        for name, data in cases.items():
            for method, reference in (("contains_any", _contains_by_steps),
                                      ("search", _search_by_steps)):
                inlined, stepped = AhoCorasick(patterns), AhoCorasick(patterns)
                got = getattr(inlined, method)(data)
                assert got == reference(stepped, data), (name, method)
                assert inlined.transitions_made == \
                    stepped.transitions_made, (name, method)
                if method == "contains_any":
                    verdicts.add(got)
        assert verdicts == {True, False}

    def test_counts_accumulate_across_calls(self):
        patterns, cases = self.payloads()
        inlined, stepped = AhoCorasick(patterns), AhoCorasick(patterns)
        for data in cases.values():
            inlined.contains_any(data)
            _contains_by_steps(stepped, data)
        assert inlined.transitions_made == stepped.transitions_made > 0


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

    def test_ids_alert_counter(self):
        ids = IntrusionDetectionSystem(patterns=[b"bad"])
        ids.process_packets([Packet(payload=b"bad bad bad")])
        verdicts = [e for e in ids.graph.elements().values()
                    if e.kind == "MatchVerdict"]
        assert verdicts[0].alerts == 1
