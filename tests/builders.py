"""Shared builders for test fixtures.

Importable from any test module (pytest puts ``tests/`` on
``sys.path`` when it loads ``tests/conftest.py``).  These are plain
functions, not fixtures, so property tests, oracles, and fixtures can
all call them with explicit parameters.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.elements.offload import OffloadableElement
from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import NetworkFunction, ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import BranchProfile
from repro.sim.mapping import Deployment, Mapping, Placement
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficGenerator, TrafficSpec


def make_traffic_spec(packet_size: int = 128, load_gbps: float = 10.0,
                      protocol: str = "udp", seed: int = 42,
                      **kwargs) -> TrafficSpec:
    """A fixed-size TrafficSpec with test-friendly defaults."""
    return TrafficSpec(size_law=FixedSize(packet_size),
                       offered_gbps=load_gbps, protocol=protocol,
                       seed=seed, **kwargs)


def make_packets(spec: Optional[TrafficSpec] = None, count: int = 32):
    """``count`` generated packets for ``spec`` (default udp spec)."""
    generator = TrafficGenerator(spec or make_traffic_spec())
    return list(generator.packets(count))


def build_chain(nf_types: Sequence[str],
                name: str = "chain",
                nfs: Optional[Iterable[NetworkFunction]] = None
                ) -> ServiceFunctionChain:
    """A ServiceFunctionChain with deterministic NF names.

    The ``{chain}.{index}.{type}`` naming makes node ids reproducible
    across separate builds of the same chain — the differential
    validator relies on this to transplant a GTA mapping from one
    build onto another.
    """
    if nfs is None:
        nfs = [make_nf(t, name=f"{name}.{i}.{t}")
               for i, t in enumerate(nf_types)]
    return ServiceFunctionChain(list(nfs), name=name)


# ---------------------------------------------------------------------------
# Weighted partition graphs (the expanded-graph schema)
# ---------------------------------------------------------------------------

def weighted_graph(nodes: Dict[str, Tuple[float, float, Optional[str]]],
                   edges: List[Tuple[str, str, float]]) -> nx.Graph:
    """nodes: {name: (cpu_time, gpu_time, pinned)};
    edges: [(u, v, weight)]."""
    graph = nx.Graph()
    for name, (cpu_time, gpu_time, pinned) in nodes.items():
        graph.add_node(name, cpu_time=cpu_time, gpu_time=gpu_time,
                       pinned=pinned)
    for u, v, weight in edges:
        graph.add_edge(u, v, weight=weight)
    return graph


def offload_friendly_graph() -> nx.Graph:
    """One heavy CPU element that is cheap on GPU, light neighbours."""
    return weighted_graph(
        {
            "rx": (1.0, float("inf"), "cpu"),
            "heavy": (100.0, 5.0, None),
            "tx": (1.0, float("inf"), "cpu"),
        },
        [("rx", "heavy", 0.5), ("heavy", "tx", 0.5)],
    )


def cpu_friendly_graph() -> nx.Graph:
    """Offloading never pays: GPU time and cut exceed CPU time."""
    return weighted_graph(
        {
            "rx": (1.0, float("inf"), "cpu"),
            "light": (2.0, 1.9, None),
            "tx": (1.0, float("inf"), "cpu"),
        },
        [("rx", "light", 10.0), ("light", "tx", 10.0)],
    )


# ---------------------------------------------------------------------------
# Golden kernel scenarios: (deployment, spec, measured profile) triples the
# parity suites replay against the frozen legacy engine and the kernel's
# digest pins replay against recorded outputs.
# ---------------------------------------------------------------------------

def _golden_chain_graph(*types):
    return ServiceFunctionChain(
        [make_nf(t) for t in types]
    ).concatenated_graph()


def cpu_only_scenario():
    """Multi-core CPU chain with a measured (drop/branch) profile."""
    spec = TrafficSpec(size_law=FixedSize(128), offered_gbps=60.0,
                       seed=11)
    graph = _golden_chain_graph("firewall", "ids", "nat")
    deployment = Deployment(
        graph, Mapping.all_cpu(graph, cores=[f"cpu{i}" for i in range(4)]),
        name="golden-cpu",
    )
    profile = BranchProfile.measure(graph.clone(), spec,
                                    sample_packets=256, batch_size=32)
    return deployment, spec, profile


def partial_offload_scenario():
    """Offload ratio 0.6, persistent kernel, stateful reassembly."""
    spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=80.0,
                       seed=23)
    graph = _golden_chain_graph("ipsec", "ids")
    mapping = Mapping.fixed_ratio(graph, 0.6,
                                  cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"],
                                  gpus=["gpu0"])
    deployment = Deployment(graph, mapping, persistent_kernel=True,
                            stateful_reassembly=True,
                            name="golden-partial")
    profile = BranchProfile.measure(graph.clone(), spec,
                                    sample_packets=256, batch_size=32)
    return deployment, spec, profile


def multi_gpu_scenario():
    """Branchy graph: offloadables spread over gpu0/gpu1 at ratio 0.7."""
    spec = TrafficSpec(size_law=FixedSize(192), offered_gbps=80.0,
                       seed=31)
    graph = _golden_chain_graph("firewall", "ipsec", "dpi", "ipv4")
    placements = {}
    core_index = 0
    gpu_index = 0
    for node in graph.topological_order():
        element = graph.element(node)
        core = f"cpu{core_index % 6}"
        core_index += 1
        if isinstance(element, OffloadableElement) and element.offloadable:
            ratio = 1.0 if gpu_index % 2 == 0 else 0.7
            placements[node] = Placement.split(
                core, f"gpu{gpu_index % 2}", ratio
            )
            gpu_index += 1
        else:
            placements[node] = Placement.split(core)
    deployment = Deployment(graph, Mapping(placements),
                            persistent_kernel=True,
                            name="golden-multigpu")
    profile = BranchProfile.measure(graph.clone(), spec,
                                    sample_packets=256, batch_size=32)
    return deployment, spec, profile


GOLDEN_SCENARIOS = {
    "cpu_only": cpu_only_scenario,
    "partial_offload": partial_offload_scenario,
    "multi_gpu": multi_gpu_scenario,
}
