"""Hypothesis properties of device-group partitioning (run with -m property).

Any assignment the partitioners report must agree with an independent
re-evaluation, and on the paper's two groups that re-evaluation must
agree with the two-group evaluator the brute-force oracle uses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import weighted_graph
from repro.core.partition import (
    HOST_GROUP,
    agglomerative_partition,
    evaluate,
    evaluate_assignment,
    kernighan_lin_partition,
)

pytestmark = pytest.mark.property

times = st.floats(min_value=0.01, max_value=100.0,
                  allow_nan=False, allow_infinity=False)
weights = st.floats(min_value=0.0, max_value=10.0,
                    allow_nan=False, allow_infinity=False)


@st.composite
def partition_graphs(draw):
    """A random chain-shaped partition graph (the expanded schema)."""
    count = draw(st.integers(min_value=2, max_value=8))
    nodes = {}
    for index in range(count):
        cpu_time = draw(times)
        offloadable = draw(st.booleans())
        gpu_time = draw(times) if offloadable else float("inf")
        pinned = None if offloadable else "cpu"
        nodes[f"n{index}"] = (cpu_time, gpu_time, pinned)
    edges = [(f"n{i}", f"n{i + 1}", draw(weights))
             for i in range(count - 1)]
    return weighted_graph(nodes, edges)


@pytest.mark.parametrize("partition", [kernighan_lin_partition,
                                       agglomerative_partition])
@settings(max_examples=60, deadline=None)
@given(graph=partition_graphs(),
       cores=st.integers(min_value=1, max_value=6),
       gpus=st.integers(min_value=1, max_value=2))
def test_reported_objective_matches_reevaluation(partition, graph, cores,
                                                 gpus):
    capacities = {HOST_GROUP: cores, "gpu": gpus}
    result = partition(graph, capacities)
    objective, cut, loads = evaluate_assignment(
        graph, result.device_groups(), capacities=capacities)
    assert result.objective == objective
    assert result.cut_weight == cut
    assert result.group_load == loads
    two_group = evaluate(graph, result.gpu_nodes, cores, gpus)
    assert result.objective == pytest.approx(two_group[0])
    assert result.cut_weight == pytest.approx(two_group[1])
