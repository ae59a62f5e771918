"""The seeded input builders against their frozen oracle, on
Hypothesis-drawn sizes, seeds and traffic specs (run with -m property).

The tier-1 twin, ``tests/traffic/test_input_reference.py``, replays a
fixed corpus; this suite draws the rule count, deny fraction, FIB size
and hop count, and the traffic spec, and requires the same rules,
tuple-space tables (on a shuffled copy too), FIB routes and lookups,
flows and packets from the product builders and from
``tests/input_reference.py``.  It also replays drawn insert sequences
into the product FIB and the frozen trie.
"""

import input_reference
import pytest
from builders import (
    assert_acl_matches,
    assert_fib_matches,
    assert_table_matches_trie,
    assert_traffic_matches,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nf.ipv4 import LPMTrie
from repro.traffic.distributions import FixedSize, IMIXSize, UniformSize
from repro.traffic.generator import TrafficSpec

pytestmark = pytest.mark.property

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(rule_count=st.integers(min_value=1, max_value=1500), seed=SEEDS,
       deny_fraction=st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0, 1))
def test_acls_and_tables(rule_count, seed, deny_fraction):
    assert_acl_matches(rule_count, seed, deny_fraction)


@settings(max_examples=100, deadline=None)
@given(prefix_count=st.integers(min_value=1, max_value=2000), seed=SEEDS,
       next_hops=st.integers(min_value=1, max_value=300))
def test_fibs(prefix_count, seed, next_hops):
    assert_fib_matches(prefix_count, seed, next_hops)


ADDRESSES = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def route_inserts(draw):
    """Insert sequences whose prefixes overlap: every prefix is one of a
    few anchor addresses with some of its bits flipped, at any length
    (/0 and /32 often), host bits left set; some inserts repeat an
    earlier prefix and length with a new next hop."""
    anchors = draw(st.lists(ADDRESSES, min_size=1, max_size=4))
    lengths = st.sampled_from([0, 32]) | st.integers(min_value=0,
                                                     max_value=32)
    inserts = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        if inserts and draw(st.booleans()):
            prefix, length, _next_hop = draw(st.sampled_from(inserts))
        else:
            flip = draw(st.integers(min_value=0, max_value=255)) \
                << draw(st.integers(min_value=0, max_value=24))
            prefix = draw(st.sampled_from(anchors)) ^ flip
            length = draw(lengths)
        inserts.append((prefix, length,
                        draw(st.integers(min_value=0, max_value=255))))
    return inserts


@settings(max_examples=300, deadline=None)
@given(inserts=route_inserts(), addresses=st.lists(ADDRESSES, max_size=20))
def test_inserts_answer_as_the_trie(inserts, addresses):
    """The per-length tables hold the frozen trie's routes and count
    after the same inserts, and answer as its walk at the first and
    last address of every route, one inside it, the addresses just
    outside it and random ones."""
    table = LPMTrie()
    trie = input_reference.ReferenceTrie()
    for prefix, length, next_hop in inserts:
        table.insert(prefix, length, next_hop)
        input_reference.insert(trie, prefix, length, next_hop)
    assert_table_matches_trie(table, trie, addresses)


size_laws = st.one_of(
    st.integers(min_value=64, max_value=1500).map(FixedSize),
    st.tuples(st.integers(64, 1500), st.integers(64, 1500)).map(
        lambda bounds: UniformSize(min(bounds), max(bounds))),
    st.just(IMIXSize()),
)


@settings(max_examples=150, deadline=None)
@given(size_law=size_laws, seed=SEEDS,
       protocol=st.sampled_from(["udp", "tcp"]),
       ip_version=st.sampled_from([4, 6]),
       flow_count=st.integers(min_value=1, max_value=2048),
       count=st.integers(min_value=1, max_value=96))
def test_traffic(size_law, seed, protocol, ip_version, flow_count, count):
    spec = TrafficSpec(size_law=size_law, protocol=protocol,
                       ip_version=ip_version, flow_count=flow_count,
                       seed=seed)
    assert_traffic_matches(spec, count)
