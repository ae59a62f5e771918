"""Hypothesis twin of the KL oracle corpus (run with -m property).

Random partition graphs with planted classes of interchangeable nodes,
under one, two and three device groups: ``kernighan_lin_partition``
must return and count exactly what the frozen KL of
``tests/partition_reference.py`` does.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import assert_kl_matches, twin_partition_graph
from repro.core.partition import HOST_GROUP

pytestmark = pytest.mark.property


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       groups=st.sampled_from([1, 2, 3]),
       cores=st.integers(min_value=1, max_value=4),
       gpus=st.integers(min_value=1, max_value=2),
       nic_link=st.floats(min_value=0.5, max_value=2.0))
def test_kl_matches_the_frozen_oracle(seed, groups, cores, gpus, nic_link):
    graph = twin_partition_graph(random.Random(seed),
                                 smartnic=groups == 3, max_nodes=18)
    capacities = {HOST_GROUP: cores}
    link_costs = None
    if groups >= 2:
        capacities["gpu"] = gpus
    if groups == 3:
        capacities["smartnic"] = 1
        link_costs = {"gpu": 1.0, "smartnic": nic_link}
    assert_kl_matches(graph, capacities, link_costs)
