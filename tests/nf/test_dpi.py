"""Unit and property tests for DPI: Aho-Corasick and the NFs."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.net.batch import PacketBatch
from repro.net.packet import Packet
from repro.nf.dpi import (
    AhoCorasick,
    DeepPacketInspector,
    IntrusionDetectionSystem,
    MatchVerdict,
    PatternMatch,
)
from repro.nf.stateful_dpi import StatefulIDS


def _search_by_steps(ac, data):
    """[(end offset, pattern index)] of every occurrence, found by the
    ``step`` walk the stateful IDS runs."""
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


def _naive_search(patterns, haystack):
    """{(end offset, pattern)} of every occurrence, by ``bytes.find``."""
    found = set()
    for pattern in patterns:
        start = haystack.find(pattern)
        while start >= 0:
            found.add((start + len(pattern), pattern))
            start = haystack.find(pattern, start + 1)
    return found


class TestAhoCorasick:
    def test_single_pattern_found(self):
        ac = AhoCorasick([b"abc"])
        assert ac.contains_any(b"xxabcxx")

    def test_no_match(self):
        ac = AhoCorasick([b"abc"])
        assert not ac.contains_any(b"xyzxyz")

    def test_overlapping_patterns(self):
        ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
        matches = _search_by_steps(ac, b"ushers")
        found = {ac.patterns[i] for _end, i in matches}
        assert found == {b"she", b"he", b"hers"}

    def test_match_offsets(self):
        ac = AhoCorasick([b"ab"])
        matches = _search_by_steps(ac, b"abab")
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
    ac_matches = {(end, ac.patterns[i])
                  for end, i in _search_by_steps(ac, haystack)}
    assert ac_matches == _naive_search(patterns, haystack)


class TestAhoCorasickInlinedWalk:
    """``contains_any`` searches a compiled alternation, and the
    ``step`` walk is the reference for its verdicts; on the same
    payloads the walk finds every occurrence naive search finds."""

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
            verdict = ac.contains_any(data)
            assert verdict == _contains_by_steps(ac, data), name
            verdicts.add(verdict)
            walked = {(end, ac.patterns[i])
                      for end, i in _search_by_steps(ac, data)}
            assert walked == _naive_search(patterns, data), name
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


class TestPatternMatchElement:
    def test_annotates_matches(self):
        element = PatternMatch([b"attack"])
        hit = Packet(payload=b"an attack payload")
        miss = Packet(payload=b"benign traffic")
        element.push(PacketBatch([hit, miss]))
        assert hit.annotations.get("dpi_match")
        assert "dpi_match" not in miss.annotations
        assert element.match_count == 1

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

    @pytest.mark.parametrize("make", [
        lambda: PatternMatch([b"x"], regexes=["x+"]),
        lambda: DeepPacketInspector(patterns=[b"x"], regexes=["x+"]),
        lambda: IntrusionDetectionSystem(patterns=[b"x"], regexes=["x+"]),
    ], ids=["PatternMatch", "DeepPacketInspector",
            "IntrusionDetectionSystem"])
    def test_regexes_option_is_gone(self, make):
        """Regex rules are not supported; the option is rejected, not
        ignored."""
        with pytest.raises(TypeError, match="regexes"):
            make()

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
