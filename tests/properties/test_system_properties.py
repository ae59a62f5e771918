"""System-level property-based tests.

Hypothesis generates random chains, partitions, and traffic and checks
the invariants the architecture promises:

- engine conservation: packets in == delivered + dropped;
- engine determinism under a fixed seed;
- synthesis preserves observable packet behaviour on random chains;
- partitioning totality and never-worse-than-initial on random graphs;
- gap-filling resource scheduling never overlaps and never reorders
  work on the same resource before its ready time.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    HOST_GROUP,
    agglomerative_partition,
    evaluate,
    kernighan_lin_partition,
)
from repro.core.synthesizer import NFSynthesizer
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import ResourceTimeline
from repro.sim.mapping import Deployment, Mapping
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficGenerator, TrafficSpec

pytestmark = pytest.mark.property

#: NFs safe for random chaining (stateless or idempotent behaviour
#: under cloned packets).
CHAINABLE = ("probe", "firewall", "ids", "lb", "dpi", "ipv4")


# ---------------------------------------------------------------------------
# Engine invariants
# ---------------------------------------------------------------------------

@given(
    nf_types=st.lists(st.sampled_from(CHAINABLE), min_size=1, max_size=3),
    batch_size=st.sampled_from([8, 16, 32]),
    batch_count=st.integers(min_value=2, max_value=8),
)
@settings(max_examples=15, deadline=None)
def test_engine_packet_conservation(nf_types, batch_size, batch_count):
    engine = SimulationEngine(PlatformSpec())
    spec = TrafficSpec(size_law=FixedSize(128), offered_gbps=10.0,
                       seed=3)
    graph = ServiceFunctionChain(
        [make_nf(t) for t in nf_types]
    ).concatenated_graph()
    deployment = Deployment(graph, Mapping.all_cpu(graph))
    report = engine.run(deployment, spec, batch_size=batch_size,
                        batch_count=batch_count)
    offered = batch_size * batch_count
    accounted = report.delivered_packets + report.dropped_packets
    assert abs(accounted - offered) < 1e-6


@given(seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=10, deadline=None)
def test_engine_determinism(seed):
    engine = SimulationEngine(PlatformSpec())
    spec = TrafficSpec(size_law=FixedSize(128), offered_gbps=10.0,
                       seed=seed)
    graph = ServiceFunctionChain([make_nf("firewall")]).concatenated_graph()
    deployment = Deployment(graph, Mapping.fixed_ratio(graph, 0.5))
    first = engine.run(deployment, spec, batch_size=16, batch_count=5)
    second = engine.run(deployment, spec, batch_size=16, batch_count=5)
    assert first.throughput_gbps == second.throughput_gbps
    assert first.latency.mean == second.latency.mean


# ---------------------------------------------------------------------------
# Resource scheduler invariants
# ---------------------------------------------------------------------------

@given(
    tasks=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            st.floats(min_value=0.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=40,
    ),
)
@settings(max_examples=100)
def test_resource_intervals_never_overlap(tasks):
    timeline = ResourceTimeline()
    for ready, duration in tasks:
        start, end = timeline.schedule("r", ready, duration)
        assert start >= ready
        assert abs((end - start) - duration) < 1e-9
    slots = timeline.intervals("r")
    assert slots == sorted(slots)
    for (s1, e1), (s2, e2) in zip(slots, slots[1:]):
        assert e1 <= s2  # never overlapping (abutting is fine)
    span = sum(e - s for s, e in slots)
    busy = timeline.busy.get("r", 0.0)
    # Committed slot widths must match busy bookkeeping.
    assert abs(span - busy) < 1e-6


# ---------------------------------------------------------------------------
# Synthesis behaviour preservation on random chains
# ---------------------------------------------------------------------------

@given(
    nf_types=st.lists(st.sampled_from(CHAINABLE), min_size=2, max_size=4),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=15, deadline=None)
def test_synthesis_preserves_behaviour_on_random_chains(nf_types, seed):
    spec = TrafficSpec(size_law=FixedSize(160), offered_gbps=10.0,
                       seed=seed)
    packets = list(TrafficGenerator(spec).packets(12))

    baseline_sfc = ServiceFunctionChain([make_nf(t) for t in nf_types])
    expected = baseline_sfc.concatenated_graph().run_packets(
        [p.clone() for p in packets]
    )

    target_sfc = ServiceFunctionChain([make_nf(t) for t in nf_types])
    synthesized, _report = NFSynthesizer().synthesize(
        target_sfc.concatenated_graph()
    )
    actual = synthesized.run_packets([p.clone() for p in packets])
    assert [p.to_bytes() for p in expected] == \
        [p.to_bytes() for p in actual]


# ---------------------------------------------------------------------------
# Partitioning invariants on random weighted graphs
# ---------------------------------------------------------------------------

@st.composite
def partition_graphs(draw):
    node_count = draw(st.integers(min_value=2, max_value=12))
    graph = nx.Graph()
    for index in range(node_count):
        pinned = draw(st.booleans())
        cpu_time = draw(st.floats(min_value=0.1, max_value=50.0))
        gpu_time = (float("inf") if pinned
                    else draw(st.floats(min_value=0.1, max_value=50.0)))
        graph.add_node(f"n{index}", cpu_time=cpu_time,
                       gpu_time=gpu_time,
                       pinned="cpu" if pinned else None)
    edge_count = draw(st.integers(min_value=0,
                                  max_value=node_count * 2))
    for _ in range(edge_count):
        u = draw(st.integers(min_value=0, max_value=node_count - 1))
        v = draw(st.integers(min_value=0, max_value=node_count - 1))
        if u != v:
            graph.add_edge(f"n{u}", f"n{v}",
                           weight=draw(st.floats(min_value=0.0,
                                                 max_value=10.0)))
    return graph


@given(graph=partition_graphs(),
       cores=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_kl_partition_invariants(graph, cores):
    result = kernighan_lin_partition(graph, {HOST_GROUP: cores, "gpu": 1})
    assert result.cpu_nodes | result.gpu_nodes == set(graph.nodes)
    assert not result.cpu_nodes & result.gpu_nodes
    for node, data in graph.nodes(data=True):
        if data.get("pinned") == "cpu":
            assert node in result.cpu_nodes
    all_cpu = evaluate(graph, set(), cpu_cores=cores)[0]
    assert result.objective <= all_cpu + 1e-9


@given(graph=partition_graphs(),
       cores=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_agglomerative_partition_invariants(graph, cores):
    result = agglomerative_partition(graph, {HOST_GROUP: cores, "gpu": 1})
    assert result.cpu_nodes | result.gpu_nodes == set(graph.nodes)
    assert not result.cpu_nodes & result.gpu_nodes
    for node, data in graph.nodes(data=True):
        if data.get("pinned") == "cpu":
            assert node in result.cpu_nodes
