"""The XOR/OR merge against its frozen byte-loop oracle.

``tests/merge_reference.py`` keeps the merge as it was when it
serialized every copy per question and XORed byte by byte.  Each case
here (``builders.merge_case``) merges one parallel stage's branch
outputs through both and requires the same outcome: wire bytes, header
fields, bookkeeping and annotation items in order, or the same error
type, message, uid, branches and offsets.  The seeded corpus covers
every case kind on IPv4/IPv6 x TCP/UDP; the Hypothesis twin in
``tests/properties/test_merge_properties.py`` draws further seeds.
"""

import random

import pytest
from builders import (
    MERGE_CASE_KINDS,
    assert_merges_match,
    counted_serializations,
    merge_case,
)

from repro.core.merge import MergeConflictError, xor_merge_packets

SEEDS = range(8)

LAYERS = pytest.mark.parametrize(
    "ipv6, tcp", [(False, False), (False, True), (True, False), (True, True)],
    ids=["ipv4-udp", "ipv4-tcp", "ipv6-udp", "ipv6-tcp"])


def corpus_rng(kind: str, ipv6: bool, tcp: bool, seed: int):
    kind_index = list(MERGE_CASE_KINDS).index(kind)
    return random.Random(((kind_index * 2 + ipv6) * 2 + tcp) * 1000 + seed)


def fields_equal(outputs) -> bool:
    first = outputs[0]
    return all((p.eth, p.ip, p.l4, p.payload)
               == (first.eth, first.ip, first.l4, first.payload)
               for p in outputs)


@pytest.mark.parametrize("kind", list(MERGE_CASE_KINDS))
@LAYERS
def test_merge_matches_the_byte_loop(kind, ipv6, tcp):
    expected = MERGE_CASE_KINDS[kind]
    for seed in SEEDS:
        outcome = assert_merges_match(
            *merge_case(corpus_rng(kind, ipv6, tcp, seed), kind, ipv6, tcp))
        if expected is True:
            assert outcome[0] == "merged", (seed, outcome)
        elif expected is False:
            assert outcome[:2] == ("raised", MergeConflictError), \
                (seed, outcome)


@pytest.mark.parametrize("kind", list(MERGE_CASE_KINDS))
@LAYERS
def test_each_copy_is_serialized_at_most_once(kind, ipv6, tcp):
    """Field-equal copies are never serialized; otherwise each copy
    once, whichever way the merge decides."""
    for seed in SEEDS:
        original, outputs, names = merge_case(
            corpus_rng(kind, ipv6, tcp, seed), kind, ipv6, tcp)
        with counted_serializations() as calls:
            try:
                xor_merge_packets(original, outputs, branch_names=names)
            except MergeConflictError:
                pass
        if kind == "field_equal":
            assert fields_equal(outputs)
        expected = 0 if fields_equal(outputs) else len(outputs)
        assert len(calls) == expected, seed
        assert len({id(packet) for packet in calls}) == len(calls)


def decision(original: bytes, outputs) -> str:
    """Which way the inputs send the merge."""
    wires = [p.to_bytes() for p in outputs]
    if fields_equal(outputs):
        return "field-equal"
    if len(set(wires)) == 1:
        return "byte-equal"
    if any(len(wire) != len(original) for wire in wires):
        return "resize"
    written = [{i for i, (a, b) in enumerate(zip(original, wire)) if a != b}
               for wire in wires]
    if any(written[i] & written[j] for i in range(len(written))
           for j in range(i)):
        return "overlapping deltas"
    return "disjoint deltas"


def test_the_corpus_reaches_every_decision():
    """Across the corpus, each decision occurs, with each outcome it
    can have, and a conflict of more than eight offsets too."""
    seen = set()
    for kind in MERGE_CASE_KINDS:
        for ipv6 in (False, True):
            for tcp in (False, True):
                for seed in SEEDS:
                    original, outputs, names = merge_case(
                        corpus_rng(kind, ipv6, tcp, seed), kind, ipv6, tcp)
                    way = decision(original, outputs)
                    try:
                        xor_merge_packets(original, outputs, names)
                    except MergeConflictError as error:
                        seen.add((way, "raised"))
                        if len(error.offsets) > 8:
                            seen.add(("many offsets", "raised"))
                    else:
                        seen.add((way, "merged"))
    assert seen == {
        ("field-equal", "merged"), ("byte-equal", "merged"),
        ("resize", "merged"), ("resize", "raised"),
        ("disjoint deltas", "merged"),
        ("overlapping deltas", "merged"), ("overlapping deltas", "raised"),
        ("many offsets", "raised"),
    }
