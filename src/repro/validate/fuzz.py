"""Seeded random-input generators for the validation suites.

Everything here is driven by an explicit :class:`random.Random` so the
CLI (``repro validate --seed N``) and the Hypothesis property tests
produce reproducible inputs.  Generators:

- :func:`random_chain_spec` — a random SFC drawn from the NF catalog;
- :func:`random_traffic_spec` — a random (but deterministic)
  TrafficSpec matching the chain;
- :func:`random_partition_graph` — a small weighted CPU/GPU task graph
  in the exact attribute schema the allocator's expansion produces
  (``cpu_time``/``gpu_time``/``pinned``/``group`` node attributes,
  ``weight`` edge attributes), small enough for the brute-force oracle.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from repro.core.partition import PartitionGraph
from repro.nf.catalog import NF_CATALOG
from repro.traffic.distributions import FixedSize, IMIXSize, UniformSize
from repro.traffic.generator import TrafficSpec
from repro.validate.differential import ChainSpec

#: NF types eligible for random chains.  ``ipv6`` is excluded because
#: the generated traffic is IPv4 and an IPv6 forwarder would drop every
#: packet, collapsing the chain into a degenerate all-drop pipeline.
DEFAULT_NF_POOL: Tuple[str, ...] = tuple(
    sorted(t for t in NF_CATALOG if t != "ipv6")
)


#: The fewest NFs a :func:`random_chain_spec` draws.
MIN_CHAIN_NFS = 2


def random_chain_spec(rng: random.Random, max_len: int = 6,
                      pool: Optional[Sequence[str]] = None,
                      name: Optional[str] = None) -> ChainSpec:
    """A random SFC of ``MIN_CHAIN_NFS``..max_len NFs drawn (with
    repetition) from ``pool``.  A ``max_len`` below ``MIN_CHAIN_NFS``
    raises ``ValueError``."""
    if max_len < MIN_CHAIN_NFS:
        raise ValueError(f"max_len {max_len} is below the random chains' "
                         f"floor of {MIN_CHAIN_NFS} NFs")
    pool = tuple(pool) if pool is not None else DEFAULT_NF_POOL
    length = rng.randint(MIN_CHAIN_NFS, max_len)
    nf_types = tuple(rng.choice(pool) for _ in range(length))
    if name is None:
        name = "fuzz-" + "-".join(nf_types)
    return ChainSpec(nf_types=nf_types, name=name)


def random_traffic_spec(rng: random.Random) -> TrafficSpec:
    """A random deterministic TrafficSpec (always IPv4)."""
    size_law = rng.choice([
        FixedSize(rng.choice([64, 128, 512, 1500])),
        UniformSize(64, rng.choice([256, 1024, 1500])),
        IMIXSize(),
    ])
    return TrafficSpec(
        offered_gbps=rng.choice([1.0, 10.0, 40.0]),
        size_law=size_law,
        protocol=rng.choice(["udp", "tcp"]),
        ip_version=4,
        flow_count=rng.choice([4, 32, 256]),
        seed=rng.randrange(1 << 30),
    )


#: The fewest nodes a :func:`random_partition_graph` draws.
MIN_PARTITION_NODES = 3


def random_partition_graph(rng: random.Random,
                           max_nodes: int = 12) -> PartitionGraph:
    """A random weighted task graph for the partition oracle.

    Mimics the expanded graph's schema: microsecond-scale ``cpu_time``
    on every node; ``gpu_time`` either a random fraction/multiple of
    the CPU time (offloadable) or ``inf`` with ``pinned="cpu"``
    (CPU-only elements); a few multi-instance ``group`` bundles; PCIe
    ``weight`` on every edge.  Node count is drawn from
    ``[MIN_PARTITION_NODES, max_nodes]``, within the brute-force
    oracle's enumeration budget.
    """
    node_count = rng.randint(MIN_PARTITION_NODES, max_nodes)
    graph = PartitionGraph()
    group_count = max(1, node_count // rng.choice([1, 2, 3]))
    for index in range(node_count):
        cpu_time = rng.uniform(0.5e-6, 50e-6)
        if rng.random() < 0.25:
            gpu_time = float("inf")
            pinned = "cpu"
        else:
            gpu_time = cpu_time * rng.uniform(0.05, 2.0)
            pinned = None
        graph.add_node(
            f"n{index}",
            cpu_time=cpu_time,
            gpu_time=gpu_time,
            pinned=pinned,
            group=f"g{index % group_count}",
        )
    nodes = list(graph.nodes)
    # A random spanning path keeps the graph connected (like a chain's
    # expanded graph), then extra chords add cut/merge structure.
    rng.shuffle(nodes)
    for left, right in zip(nodes, nodes[1:]):
        graph.add_edge(left, right, weight=rng.uniform(0.0, 10e-6))
    extra_edges = rng.randint(0, node_count)
    for _ in range(extra_edges):
        left, right = rng.sample(nodes, 2)
        if not graph.has_edge(left, right):
            graph.add_edge(left, right, weight=rng.uniform(0.0, 10e-6))
    return graph
