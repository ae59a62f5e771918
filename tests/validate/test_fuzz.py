"""Tier-1 tests for the seeded fuzz generators."""

import random

import pytest

from repro.validate.fuzz import (
    DEFAULT_NF_POOL,
    random_chain_spec,
    random_partition_graph,
    random_traffic_spec,
)


def test_same_seed_same_outputs():
    a, b = random.Random(3), random.Random(3)
    assert random_chain_spec(a) == random_chain_spec(b)
    assert random_traffic_spec(a) == random_traffic_spec(b)
    left = random_partition_graph(a)
    right = random_partition_graph(b)
    assert set(left.nodes) == set(right.nodes)
    assert set(left.edges()) == set(right.edges())
    assert dict(left.nodes(data=True)) == dict(right.nodes(data=True))


def test_chain_spec_bounds_and_pool():
    rng = random.Random(0)
    for _ in range(50):
        spec = random_chain_spec(rng, max_len=4)
        assert 2 <= len(spec.nf_types) <= 4
        assert all(t in DEFAULT_NF_POOL for t in spec.nf_types)
    assert "ipv6" not in DEFAULT_NF_POOL


@pytest.mark.parametrize("max_len", [1, 0, -3])
def test_chain_spec_below_two_nfs_rejected(max_len):
    """A ``max_len`` below 2 used to draw 2-NF chains silently."""
    with pytest.raises(ValueError, match=f"max_len {max_len} is below"):
        random_chain_spec(random.Random(0), max_len=max_len)


def test_chain_spec_at_two_nfs():
    rng = random.Random(0)
    assert all(len(random_chain_spec(rng, max_len=2).nf_types) == 2
               for _ in range(10))


def test_traffic_spec_is_ipv4():
    rng = random.Random(1)
    for _ in range(20):
        assert random_traffic_spec(rng).ip_version == 4


def test_partition_graph_schema():
    rng = random.Random(2)
    for _ in range(30):
        graph = random_partition_graph(rng, max_nodes=10)
        assert 3 <= len(graph.nodes) <= 10
        for _node, data in graph.nodes(data=True):
            assert data["cpu_time"] > 0
            assert data["gpu_time"] > 0
            if data["pinned"] == "cpu":
                assert data["gpu_time"] == float("inf")
            assert "group" in data
        for _u, _v, data in graph.edges(data=True):
            assert data["weight"] >= 0
