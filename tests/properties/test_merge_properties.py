"""The XOR/OR merge against its frozen byte-loop oracle, on
Hypothesis-drawn stages (run with -m property).

The tier-1 twin, ``tests/core/test_merge_reference.py``, replays a
fixed seed corpus; this suite draws the seed, the case kind and the
layers, and requires the same outcome from both merges: wire bytes,
header fields, bookkeeping and annotation items in order, or the same
error type, message, uid, branches and offsets.
"""

import random

import pytest
from builders import MERGE_CASE_KINDS, assert_merges_match, merge_case
from hypothesis import given, settings
from hypothesis import strategies as st

pytestmark = pytest.mark.property


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       kind=st.sampled_from(list(MERGE_CASE_KINDS)),
       ipv6=st.booleans(), tcp=st.booleans())
def test_merge_matches_the_byte_loop(seed, kind, ipv6, tcp):
    assert_merges_match(*merge_case(random.Random(seed), kind, ipv6, tcp))
