"""Shared builders for test fixtures.

Importable from any test module (pytest puts ``tests/`` on
``sys.path`` when it loads ``tests/conftest.py``).  These are plain
functions, not fixtures, so property tests, oracles, and fixtures can
all call them with explicit parameters.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import input_reference
import merge_reference
import networkx as nx
import partition_reference

from repro.core.merge import BRANCH_ANNOTATION, xor_merge_packets
from repro.core.orchestrator import SFCOrchestrator
from repro.core.partition import (
    HOST_GROUP,
    PartitionGraph,
    kernighan_lin_partition,
)
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement
from repro.elements.standard import CheckIPHeader, FromDevice, ToDevice
from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import NetworkFunction, ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.nf.dpi import PatternMatch
from repro.nf.firewall import AclClassify, TupleSpaceMatcher
from repro.nf.ipv4 import IPv4Lookup, LPMTrie
from repro.net.packet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IPPROTO_TCP,
    IPPROTO_UDP,
    EthernetHeader,
    IPv4Header,
    IPv6Header,
    Packet,
    TCPHeader,
    UDPHeader,
    int_to_ipv4,
)
from repro.obs import Trace
from repro.runner import canonical_fingerprint, canonical_form
from repro.sim.engine import BranchProfile
from repro.sim.mapping import Deployment, Mapping, Placement
from repro.traffic.acl import AclRule, generate_acl
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficGenerator, TrafficSpec
from repro.validate.fuzz import random_partition_graph


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


def with_group_times(rng: random.Random, graph: PartitionGraph,
                     smartnic: bool) -> PartitionGraph:
    """Give every node ``group_times``: the host and, on movable
    nodes, most often the GPU and (with ``smartnic``) sometimes a
    SmartNIC."""
    for data in graph.nodes.values():
        times = {HOST_GROUP: data["cpu_time"]}
        if data["pinned"] is None:
            if rng.random() < 0.8:
                times["gpu"] = data["gpu_time"]
            if smartnic and rng.random() < 0.6:
                times["smartnic"] = data["cpu_time"] * rng.uniform(0.05, 1.5)
        data["group_times"] = times
    return graph


def twin_partition_graph(rng: random.Random, smartnic: bool = False,
                         max_nodes: int = 14) -> PartitionGraph:
    """A random partition graph with planted classes of
    interchangeable nodes, as an element's delta-slices are.

    Some movable nodes of a :func:`random_partition_graph` become
    bundles of 2-6 copies with the same attributes; every edge joins
    each copy of one end to each copy of the other with its weight, so
    the copies of a node share their neighbour list, ids and weights
    in order.  Nodes enter in a shuffled order, so copies are rarely
    next to each other in it.  Up to three copies are decoys that
    keep two of their bundle's element, times and neighbour list but
    not the third: one gets an edge of its own, one its times scaled,
    one an element of its own.
    """
    base = with_group_times(rng, random_partition_graph(
        rng, max_nodes=max_nodes), smartnic)
    movable = [n for n, data in base.nodes(data=True)
               if data["pinned"] is None]
    bundles = {node: [node] for node in base.nodes}
    for node in rng.sample(movable, min(len(movable), rng.randint(1, 3))):
        bundles[node] += [f"{node}~{i}" for i in range(rng.randint(1, 5))]
    order = [(copy_id, node) for node, copies in bundles.items()
             for copy_id in copies]
    rng.shuffle(order)
    graph = PartitionGraph()
    for copy_id, node in order:
        data = base.nodes[node]
        graph.add_node(copy_id, **{
            key: dict(value) if key == "group_times" else value
            for key, value in data.items()})
    for u, v, data in base.edges(data=True):
        for a in bundles[u]:
            for b in bundles[v]:
                graph.add_edge(a, b, weight=data["weight"])
    decoys = [(node, copy_id) for copy_id, node in order
              if copy_id != node]
    rng.shuffle(decoys)
    for kind, (node, decoy) in zip(("edge", "times", "element"), decoys):
        data = graph.nodes[decoy]
        if kind == "edge":
            strangers = [other for other in graph.nodes
                         if other not in bundles[node]
                         and not graph.has_edge(decoy, other)]
            if strangers:
                graph.add_edge(decoy, rng.choice(strangers),
                               weight=rng.uniform(0.0, 10e-6))
        elif kind == "times":
            scale = rng.uniform(0.5, 1.5)
            data["cpu_time"] *= scale
            data["gpu_time"] *= scale
            data["group_times"] = {group: seconds * scale for group, seconds
                                   in data["group_times"].items()}
        else:
            data["group"] = decoy
    return graph


def kl_outcome(partitioner, graph, capacities, link_costs=None) -> dict:
    """Everything a KL run returns and counts: node groups, objective
    and cut bits, group loads, passes, and its trace counters."""
    trace = Trace("kl")
    result = partitioner(graph, capacities, link_costs, trace=trace)
    return {
        "groups": result.groups,
        "objective": result.objective.hex(),
        "cut": result.cut_weight.hex(),
        "loads": {group: load.hex()
                  for group, load in result.group_load.items()},
        "cpu_load": result.cpu_load.hex(),
        "gpu_load": result.gpu_load.hex(),
        "passes": result.passes,
        "counters": trace.metrics.snapshot()["counters"],
    }


def assert_kl_matches(graph, capacities, link_costs=None) -> dict:
    """``kernighan_lin_partition`` returns and counts what the frozen
    KL (``tests/partition_reference.py``) does; returns the outcome."""
    got = kl_outcome(kernighan_lin_partition, graph, capacities,
                     link_costs)
    assert got == kl_outcome(partition_reference.kernighan_lin_partition,
                             graph, capacities, link_costs)
    return got


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


class MemoRunner:
    """A serial sweep runner that computes each distinct point once.

    Shared by a test class, it lets a harness's ``main`` render from
    the points the class's tests already ran.  A point is keyed by its
    point function and merged parameters; the memo lives only as long
    as the runner, so nothing carries over between classes.
    """

    def __init__(self):
        self._rows: Dict[str, list] = {}

    def run(self, spec, trace=None) -> list:
        rows = []
        for index in range(len(spec)):
            params = spec.point_params(index)
            key = canonical_fingerprint([spec.point, params])
            if key not in self._rows:
                self._rows[key] = spec.point(**params)
            rows.extend(self._rows[key])
        return rows


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



# ---------------------------------------------------------------------------
# Parallel-branch merge cases, compared against the frozen byte-loop merge
# ---------------------------------------------------------------------------

#: How a generated stage's branches wrote their copies of the packet,
#: and whether the merge must succeed (``True``), raise
#: :class:`~repro.core.merge.MergeConflictError` (``False``) or may do
#: either (``None``).
MERGE_CASE_KINDS = {
    "field_equal": True,      # every branch made the same writes
    "byte_equal": True,       # the same wire bytes, different fields
    "disjoint": True,         # writers in distinct regions
    "same_value": True,       # two branches wrote one field to one value
    "conflict": False,        # two branches wrote one byte to two values
    "three_branches": None,   # three branches, random same-size writes
    "one_resizer": True,      # one branch resized, the others only read
    "resizer_writer": False,  # one branch resized, another wrote
    "two_resizers": False,    # two branches resized
}

#: The region each same-size write touches.  Writes in distinct groups
#: never share a byte; the IPv4 checksum ties ``ttl`` to ``dst``.
_WRITE_GROUPS = {"ttl": "ip", "dst": "ip", "sport": "l4",
                 "payload": "payload"}


def _random_mac(rng) -> str:
    # A leading hex letter gives ``upper()`` something to respell.
    return ":".join(["%02x" % rng.randrange(0xA0, 0x100)]
                    + ["%02x" % rng.randrange(256) for _ in range(5)])


def _random_packet(rng, ipv6: bool, tcp: bool) -> Packet:
    proto = IPPROTO_TCP if tcp else IPPROTO_UDP
    if ipv6:
        ip = IPv6Header(src=rng.getrandbits(128), dst=rng.getrandbits(128),
                        next_header=proto, hop_limit=rng.randrange(256),
                        traffic_class=rng.randrange(256),
                        flow_label=rng.getrandbits(20))
    else:
        ip = IPv4Header(src=int_to_ipv4(rng.getrandbits(32)),
                        dst=int_to_ipv4(rng.getrandbits(32)),
                        protocol=proto, ttl=rng.randrange(256),
                        tos=rng.randrange(256),
                        identification=rng.randrange(65536))
    if tcp:
        l4 = TCPHeader(src_port=rng.randrange(65536),
                       dst_port=rng.randrange(65536),
                       seq=rng.getrandbits(32), ack=rng.getrandbits(32),
                       flags=rng.randrange(256),
                       window=rng.randrange(65536))
    else:
        l4 = UDPHeader(src_port=rng.randrange(65536),
                       dst_port=rng.randrange(65536))
    eth = EthernetHeader(dst_mac=_random_mac(rng), src_mac=_random_mac(rng),
                         ethertype=ETHERTYPE_IPV6 if ipv6 else ETHERTYPE_IPV4)
    payload = bytes(rng.randrange(256) for _ in range(rng.randint(10, 40)))
    return Packet(eth=eth, ip=ip, l4=l4, payload=payload,
                  seqno=rng.randrange(1000), arrival_time=rng.random())


def _other_byte(original: int, written: int) -> int:
    """A byte value that is neither ``original`` nor ``written``."""
    return original ^ ((original ^ written) % 255 + 1)


def _random_write(rng, packet: Packet, field: str) -> tuple:
    """A write of ``field`` to a value other than the packet's own."""
    if field == "ttl":
        current = packet.ip.ttl if packet.is_ipv4 else packet.ip.hop_limit
        return ("ttl", current ^ rng.randint(1, 255))
    if field == "dst":
        if packet.is_ipv4:
            return ("dst", int_to_ipv4(rng.getrandbits(32)))
        return ("dst", rng.getrandbits(128))
    if field == "sport":
        return ("sport", packet.l4.src_port ^ rng.randint(1, 65535))
    if field == "payload":
        offset = rng.randrange(len(packet.payload))
        return ("payload",
                (offset, packet.payload[offset] ^ rng.randint(1, 255)))
    if field == "fill":
        return ("fill", bytes(b ^ rng.randint(1, 255)
                              for b in packet.payload))
    if field == "resize":
        return ("resize", bytes(rng.randrange(256)
                                for _ in range(rng.randint(1, 12))))
    raise ValueError(field)


def _clashing_write(packet: Packet, write: tuple) -> tuple:
    """A write of the same bytes as ``write``, each to another value."""
    field, value = write
    if field == "ttl":
        current = packet.ip.ttl if packet.is_ipv4 else packet.ip.hop_limit
        return ("ttl", _other_byte(current, value))
    if field == "payload":
        offset, byte = value
        return ("payload",
                (offset, _other_byte(packet.payload[offset], byte)))
    if field == "fill":
        return ("fill", bytes(_other_byte(b, w)
                              for b, w in zip(packet.payload, value)))
    raise ValueError(field)


def _apply_write(packet: Packet, write: tuple) -> None:
    field, value = write
    if field == "ttl":
        if packet.is_ipv4:
            packet.ip.ttl = value
        else:
            packet.ip.hop_limit = value
    elif field == "dst":
        packet.ip.dst = value
    elif field == "sport":
        packet.l4.src_port = value
    elif field == "payload":
        offset, byte = value
        packet.payload = (packet.payload[:offset] + bytes([byte])
                          + packet.payload[offset + 1:])
    elif field == "fill":
        packet.payload = value
    elif field == "resize":
        packet.payload = packet.payload + value
    elif field == "explicit_length":
        # Freeze the lengths the serializer would compute: the same
        # wire bytes, no longer the 0 sentinels.
        l4_len = len(packet.payload) + packet.l4.LENGTH
        if packet.is_ipv4:
            packet.ip.total_length = packet.ip.LENGTH + l4_len
        else:
            packet.ip.payload_length = l4_len
        if packet.is_udp:
            packet.l4.length = l4_len
    elif field == "mac_case":
        packet.eth.src_mac = packet.eth.src_mac.upper()
    else:
        raise ValueError(field)


def _case_writes(rng, base: Packet, kind: str) -> List[List[tuple]]:
    """Each branch's writes, in order, for one case of ``kind``."""
    same_size = list(_WRITE_GROUPS)
    if kind in ("field_equal", "byte_equal"):
        count = rng.choice((2, 3))
        shared = [_random_write(rng, base, f)
                  for f in rng.sample(same_size + ["resize"],
                                      rng.randint(0, 2))]
        writes = [list(shared) for _ in range(count)]
        if kind == "byte_equal":
            for index in rng.sample(range(count), rng.randint(1, count - 1)):
                writes[index].append(("explicit_length", None))
                if rng.random() < 0.5:
                    writes[index].append(("mac_case", None))
        return writes
    if kind == "disjoint":
        by_group = {}
        for field in rng.sample(same_size, len(same_size)):
            by_group.setdefault(_WRITE_GROUPS[field], field)
        fields = rng.sample(sorted(by_group.values()), rng.choice((2, 3)))
        writes = [[_random_write(rng, base, f)] for f in fields]
        writes += [[] for _ in range(rng.randint(0, 1))]
    elif kind == "same_value":
        write = _random_write(rng, base, rng.choice(same_size))
        others = [f for f in same_size
                  if _WRITE_GROUPS[f] != _WRITE_GROUPS[write[0]]]
        writes = [[write], [write],
                  [_random_write(rng, base, rng.choice(others))]
                  if rng.random() < 0.5 else []]
    elif kind == "conflict":
        write = _random_write(rng, base,
                              rng.choice(("ttl", "payload", "fill")))
        writes = [[write], [_clashing_write(base, write)]]
        writes += [[] for _ in range(rng.randint(0, 1))]
    elif kind == "three_branches":
        writes = [[_random_write(rng, base, f)
                   for f in rng.sample(same_size, rng.randint(0, 2))]
                  for _ in range(3)]
    elif kind == "one_resizer":
        writes = [[_random_write(rng, base, "resize")]]
        writes += [[("explicit_length", None)] if rng.random() < 0.3
                   else [] for _ in range(rng.choice((1, 2)))]
    elif kind == "resizer_writer":
        writes = [[_random_write(rng, base, "resize")],
                  [_random_write(rng, base, rng.choice(same_size))]]
        writes += [[] for _ in range(rng.randint(0, 1))]
    elif kind == "two_resizers":
        # Equal resizes leave equal copies, which the error still
        # labels by their own positions (the oracle labels both by the
        # first equal copy's); a third, untouched branch keeps them
        # from merging as identical outputs.
        first = _random_write(rng, base, "resize")
        if rng.random() < 0.5:
            writes = [[first], [first], []]
        else:
            writes = [[first], [_random_write(rng, base, "resize")]]
            writes += [[] for _ in range(rng.randint(0, 1))]
    else:
        raise ValueError(kind)
    rng.shuffle(writes)
    return writes


def merge_case(rng, kind: str, ipv6: bool = False, tcp: bool = False):
    """One parallel stage's merge inputs, drawn from ``rng``.

    Returns ``(original_bytes, branch_outputs, branch_names)``: the
    pre-branch wire bytes, one copy per branch with the writes
    ``kind`` (a key of :data:`MERGE_CASE_KINDS`) prescribes, and the
    branch names or ``None``.  Copies carry the snapshot annotation
    and random per-branch annotations; half the stages also stamp the
    Tee's branch index, the rest leave labels to positions.
    """
    base = _random_packet(rng, ipv6, tcp)
    original = base.to_bytes()
    base.annotations["orig_bytes"] = original
    stamped = rng.random() < 0.5
    outputs = []
    for index, writes in enumerate(_case_writes(rng, base, kind)):
        output = base.clone()
        if stamped:
            output.annotations[BRANCH_ANNOTATION] = index
        for key in rng.sample(("verdict", "alert", "class"),
                              rng.randint(0, 2)):
            output.annotations[key] = (index, rng.randrange(3))
        for write in writes:
            _apply_write(output, write)
        outputs.append(output)
    names = (("fw", "ids", "nat")[:len(outputs)]
             if rng.random() < 0.5 else None)
    return original, outputs, names


def merge_outcome(merge, original: bytes, outputs, names) -> tuple:
    """Everything a merge's result shows: the merged packet's wire
    bytes, header fields, bookkeeping and annotation items in order,
    or the raised error's type, message, uid, branches and offsets.

    ``merge`` works on a deep copy of ``outputs`` and must leave it as
    it found it.
    """
    inputs = copy.deepcopy(outputs)
    try:
        merged = merge(original, inputs, branch_names=names)
    except ValueError as error:
        outcome = ("raised", type(error), str(error),
                   getattr(error, "uid", None),
                   getattr(error, "branches", None),
                   getattr(error, "offsets", None))
    else:
        outcome = ("merged", merged.to_bytes(), merged.eth, merged.ip,
                   merged.l4, merged.payload, merged.uid, merged.seqno,
                   merged.arrival_time, merged.dropped,
                   merged.drop_reason, list(merged.annotations.items()))
    assert inputs == outputs, "the merge changed its branch outputs"
    return outcome


@contextlib.contextmanager
def counted_serializations():
    """Yield the list of packets ``Packet.to_bytes`` serializes inside
    the block, one entry per call."""
    calls = []
    to_bytes = Packet.to_bytes

    def counting(packet):
        calls.append(packet)
        return to_bytes(packet)

    Packet.to_bytes = counting
    try:
        yield calls
    finally:
        Packet.to_bytes = to_bytes


def assert_merges_match(original: bytes, outputs, names) -> tuple:
    """The merge's outcome equals the frozen byte-loop merge's
    (``tests/merge_reference.py``); returns it.

    One exception: the oracle labels a resized copy by
    ``branch_outputs.index(copy)``, the first ``==`` copy, so equal
    copies share a label.  Where its resize-error labels repeat, the
    merge must give each resized copy its own positional label.
    """
    got = merge_outcome(xor_merge_packets, original, outputs, names)
    want = merge_outcome(merge_reference.xor_merge_packets, original,
                         outputs, names)
    if want[0] == "raised" and len(set(want[4])) < len(want[4]):
        resized = [i for i, output in enumerate(outputs)
                   if len(output.to_bytes()) != len(original)]
        labels = tuple(merge_reference._branch_label(outputs[i], i, names)
                       for i in resized)
        want = want[:4] + (labels,) + want[5:]
    assert got == want
    return got


def fib_nodes(trie: input_reference.ReferenceTrie
              ) -> List[Tuple[str, Optional[int]]]:
    """Every node of the frozen ``trie`` in preorder, the 0 branch
    first: its path from the root as a bit string, and its next hop."""
    nodes = []
    stack = [("", trie._root)]
    while stack:
        path, node = stack.pop()
        nodes.append((path, node.next_hop))
        for bit in (1, 0):
            child = node.children[bit]
            if child is not None:
                stack.append((path + str(bit), child))
    return nodes


def fib_entries(table: LPMTrie) -> List[Tuple[int, int, int]]:
    """Every route of ``table`` as (length, key, next hop), sorted: the
    entries of its per-length tables."""
    return sorted((length, key, next_hop)
                  for length, entries in table._tables.items()
                  for key, next_hop in entries.items())


def trie_entries(trie: input_reference.ReferenceTrie
                 ) -> List[Tuple[int, int, int]]:
    """The routes of the frozen ``trie`` in :func:`fib_entries`'s form:
    each node that carries a next hop, with its depth as the length and
    its path as the key."""
    return sorted((len(path), int(path, 2) if path else 0, next_hop)
                  for path, next_hop in fib_nodes(trie)
                  if next_hop is not None)


def route_probes(entries: Iterable[Tuple[int, int, int]],
                 seed: int = 0) -> List[int]:
    """For each (length, key, next hop) route: the first and the last
    address it covers, one address inside it drawn from ``seed``, and
    the addresses just below and above it."""
    rng = random.Random(seed)
    addresses = []
    for length, key, _next_hop in entries:
        host_bits = 32 - length
        first = key << host_bits
        last = first | ((1 << host_bits) - 1)
        addresses += [first, last, first | rng.getrandbits(host_bits)]
        if first > 0:
            addresses.append(first - 1)
        if last < 0xFFFFFFFF:
            addresses.append(last + 1)
    return addresses


def assert_table_matches_trie(table: LPMTrie,
                              trie: input_reference.ReferenceTrie,
                              addresses: Iterable[int] = ()) -> None:
    """``table`` holds the frozen ``trie``'s routes and prefix count,
    and answers as the trie's walk at every :func:`route_probes`
    address and at ``addresses``."""
    entries = trie_entries(trie)
    assert fib_entries(table) == entries
    assert table.prefix_count == trie.prefix_count
    for address in route_probes(entries) + list(addresses):
        assert table.lookup(address) == trie.lookup(address), hex(address)


def filled_tables(rules):
    """The tables a :class:`TupleSpaceMatcher` over ``rules`` builds
    on its first use."""
    matcher = TupleSpaceMatcher(rules)
    assert matcher._tables == {}
    matcher.tuple_count
    return matcher._tables


def table_layout(tables) -> list:
    """A tuple-space table's tuples, keys and candidates in their dict
    and list orders; candidates by identity."""
    return [(tuple_key, [(key, [id(rule) for rule in candidates])
                         for key, candidates in bucket.items()])
            for tuple_key, bucket in tables.items()]


def table_buckets(tables) -> dict:
    """A tuple-space table's candidates per tuple and key, in list
    order, whatever order the tuples and keys come in; candidates by
    identity."""
    return {tuple_key: {key: [id(rule) for rule in candidates]
                        for key, candidates in bucket.items()}
            for tuple_key, bucket in tables.items()}


def traffic_records(generator: TrafficGenerator, count: int) -> list:
    """The first ``count`` packets' wire bytes, seqnos and arrival
    times."""
    return [(packet.to_bytes(), packet.seqno, packet.arrival_time)
            for packet in generator.packets(count)]


def assert_acl_matches(rule_count: int, seed: int,
                       deny_fraction: float) -> List[AclRule]:
    """``generate_acl`` equals the frozen generator
    (``tests/input_reference.py``), and the tuple-space tables built on
    its rules equal the frozen build in tuple, key and candidate order.
    On a shuffled copy of the rules they hold the frozen build's
    candidates, in its order, under every tuple and key (the tuples'
    and keys' own order follows the sorted copy every matcher builds
    from, ``TestOneMatchOrder``); returns the rules."""
    rules = generate_acl(rule_count, seed=seed, deny_fraction=deny_fraction)
    assert rules == input_reference.generate_acl(
        rule_count, seed=seed, deny_fraction=deny_fraction)
    assert table_layout(filled_tables(rules)) == \
        table_layout(input_reference.tuple_space_tables(rules))
    shuffled = list(rules)
    random.Random(seed).shuffle(shuffled)
    assert table_buckets(filled_tables(shuffled)) == \
        table_buckets(input_reference.tuple_space_tables(shuffled))
    return rules


def assert_fib_matches(prefix_count: int, seed: int,
                       next_hops: int) -> None:
    """``LPMTrie.random_table`` holds the routes of the frozen
    builder's trie, counts the same prefixes and answers the same
    lookups (:func:`assert_table_matches_trie`)."""
    table = LPMTrie.random_table(prefix_count, seed=seed,
                                 next_hops=next_hops)
    want = input_reference.random_table(prefix_count, seed=seed,
                                        next_hops=next_hops)
    assert_table_matches_trie(table, want)


def assert_traffic_matches(spec: TrafficSpec, count: int) -> None:
    """A generator draws the frozen generator's flows and its first
    ``count`` packets' bytes, seqnos and arrival times."""
    got = TrafficGenerator(spec)
    want = input_reference.ReferenceGenerator(spec)
    assert got._flows == want._flows
    assert traffic_records(got, count) == traffic_records(want, count)
