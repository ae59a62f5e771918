"""Shared builders for test fixtures.

Importable from any test module (pytest puts ``tests/`` on
``sys.path`` when it loads ``tests/conftest.py``).  These are plain
functions, not fixtures, so property tests, oracles, and fixtures can
all call them with explicit parameters.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.orchestrator import SFCOrchestrator
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement
from repro.elements.standard import CheckIPHeader, FromDevice, ToDevice
from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import NetworkFunction, ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.nf.dpi import PatternMatch
from repro.nf.firewall import AclClassify
from repro.nf.ipv4 import IPv4Lookup, LPMTrie
from repro.runner import canonical_form
from repro.sim.engine import BranchProfile
from repro.sim.mapping import Deployment, Mapping, Placement
from repro.traffic.acl import AclRule
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
# parity suites replay through the kernel and the frozen legacy engine in
# ``tests/legacy_engine.py`` (reports must match exactly), and the
# kernel's digest pins replay against recorded outputs.
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


def branchy_scenario():
    """A split-and-rejoin graph no NF chain builds.

    The classifier denies ports 80-443 to its port 1, so measured
    traffic leaves it on two ports that fan back in at ``lookup``
    (batch split and fan-in merge, on cores other than ``cpu0``).
    Four adjacent offloadables share gpu0: ``lookup`` and ``match``
    are fully offloaded, so the PCIe hop between them is skipped,
    while the partially offloaded ``classify`` before them and
    ``scan`` after them still pay theirs.
    """
    spec = TrafficSpec(size_law=FixedSize(192), offered_gbps=60.0,
                       seed=41)
    everywhere = dict(src_prefix=(0, 0), dst_prefix=(0, 0),
                      src_ports=(0, 65535), proto=None)
    rules = [AclRule(priority=0, dst_ports=(80, 443), action="deny",
                     **everywhere),
             AclRule(priority=1, dst_ports=(0, 65535), **everywhere)]
    fib = LPMTrie()
    fib.insert(0, 0, 1)
    graph = ElementGraph(name="branchy")
    rx = graph.add(FromDevice(name="rx"))
    check = graph.add(CheckIPHeader(name="check"))
    classify = graph.add(AclClassify(rules, name="classify"))
    lookup = graph.add(IPv4Lookup(fib, name="lookup"))
    match = graph.add(PatternMatch([b"attack"], name="match"))
    scan = graph.add(PatternMatch([b"exploit"], name="scan"))
    tx = graph.add(ToDevice(name="tx"))
    graph.connect(rx, check)
    graph.connect(check, classify)
    graph.connect(classify, lookup, src_port=0)
    graph.connect(classify, lookup, src_port=1)
    graph.connect(lookup, match)
    graph.connect(match, scan)
    graph.connect(scan, tx)
    mapping = Mapping({
        rx: Placement.split("cpu1"),
        check: Placement.split("cpu2"),
        classify: Placement.split("cpu3", "gpu0", 0.5),
        lookup: Placement.split("cpu4", "gpu0", 1.0),
        match: Placement.split("cpu5", "gpu0", 1.0),
        scan: Placement.split("cpu2", "gpu0", 0.7),
        tx: Placement.split("cpu1"),
    })
    deployment = Deployment(graph, mapping, persistent_kernel=True,
                            name="golden-branchy")
    profile = BranchProfile.measure(graph.clone(), spec,
                                    sample_packets=256, batch_size=32)
    return deployment, spec, profile


#: The chain of the pipeline benchmark's kernel graph.
FIVE_NF = ("firewall", "ids", "nat", "ipsec", "dpi")


def kernel_bench_scenario():
    """The pipeline benchmark's kernel graph at 1 Gbps, below its
    capacity (about 1.55 Gbps in 32-packet batches, 1.8 in 64).

    ``SFCOrchestrator().parallelize`` of :data:`FIVE_NF` gives a
    25-node graph whose first stage duplicates traffic with a ``Tee``
    into a firewall and an IDS branch and rejoins it at the
    ``s0/merge`` ``XorMerge``.  Nodes take cores ``cpu0``..``cpu5``
    round-robin and every offloadable element offloads 0.7 of its
    traffic to ``gpu0``/``gpu1`` in turn, with the persistent kernel.
    """
    spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=1.0, seed=53)
    # Named as in a fresh interpreter, so node ids never depend on how
    # many NFs were built before.
    sfc = ServiceFunctionChain([make_nf(kind, name=f"{kind}#{index}")
                                for index, kind in enumerate(FIVE_NF)])
    _plan, graph = SFCOrchestrator().parallelize(sfc)
    placements = {}
    offloaded = 0
    for index, node in enumerate(graph.topological_order()):
        element = graph.element(node)
        core = f"cpu{index % 6}"
        if isinstance(element, OffloadableElement) and element.offloadable:
            placements[node] = Placement.split(core, f"gpu{offloaded % 2}",
                                               0.7)
            offloaded += 1
        else:
            placements[node] = Placement.split(core)
    deployment = Deployment(graph, Mapping(placements),
                            persistent_kernel=True, name="golden-tee")
    profile = BranchProfile.measure(graph.clone(), spec,
                                    sample_packets=256, batch_size=32)
    return deployment, spec, profile


GOLDEN_SCENARIOS = {
    "cpu_only": cpu_only_scenario,
    "partial_offload": partial_offload_scenario,
    "multi_gpu": multi_gpu_scenario,
    "branchy": branchy_scenario,
    "tee": kernel_bench_scenario,
}


def assert_reports_match(new, old):
    """Kernel report ``new`` equals legacy report ``old`` exactly (``==``)
    on every scalar, latency, overhead and per-resource busy field."""
    for attr in ("name", "offered_gbps", "delivered_packets",
                 "delivered_bytes", "dropped_packets", "makespan_seconds",
                 "throughput_gbps"):
        assert getattr(new, attr) == getattr(old, attr), attr
    assert new.latency == old.latency
    assert new.overheads == old.overheads
    assert new.processor_busy_seconds == old.processor_busy_seconds


# ---------------------------------------------------------------------------
# Digests recorded before reports carried a RunLedger
# ---------------------------------------------------------------------------

_REPORT = "repro.sim.metrics.ThroughputLatencyReport"


def _drop_ledgers(form) -> None:
    if isinstance(form, dict):
        if form.get("__dataclass__") == _REPORT:
            del form["fields"]["ledger"]
        for value in form.values():
            _drop_ledgers(value)
    elif isinstance(form, (list, tuple)):
        for item in form:
            _drop_ledgers(item)


def ledgerless_fingerprint(obj) -> str:
    """``canonical_fingerprint(obj)`` with every report's ``ledger``
    field left out: the view digests recorded before reports carried a
    ledger were taken of."""
    form = canonical_form(obj)
    _drop_ledgers(form)
    encoded = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def fault_stats(report, faulted: bool) -> Optional[dict]:
    """The per-run fault dict sessions kept before the ledger, rebuilt
    from ``report.ledger``: ``None`` unless the run had a non-empty
    fault timeline."""
    if not faulted:
        return None
    ledger = report.ledger
    return {
        "requeued_batches": ledger.fault_crash.batches,
        "requeued_packets": ledger.fault_crash.packets,
        "requeue_seconds": ledger.fault_crash.host_seconds,
        "degraded_transfers": ledger.degraded_transfers,
        "slowed_kernels": ledger.slowed_kernels,
    }


def overload_stats(report, protected: bool) -> Optional[dict]:
    """The per-run overload dict sessions kept before the ledger,
    rebuilt from ``report``: ``None`` unless the run had a non-no-op
    overload config."""
    if not protected:
        return None
    ledger = report.ledger
    return {
        "shed_batches": ledger.shed_batches,
        "shed_packets": report.shed_packets,
        "queue_dropped_batches": ledger.queue_dropped_batches,
        "queue_dropped_packets": report.queue_dropped_packets,
        "head_cancelled": ledger.head_cancelled_batches,
        "breaker_trips": ledger.breaker_trips,
        "retry_attempts": ledger.retry_attempts,
        "breaker_open_requeues": ledger.breaker_open.batches,
        "retry_exhausted_requeues": ledger.retry_exhausted.batches,
    }
