"""Golden-model differential validation.

The paper's central safety claim is that NFCompass's two-level SFC
re-organization (Table III hazard rules + NF-level synthesis) and the
GTA partitioning are *semantics-preserving*: the reorganized,
partitioned deployment must process packets identically to the
original sequential chain.  This module checks that claim mechanically:

1. build the chain **twice** from one :class:`ChainSpec` (NF graphs
   share element objects with their deployment graph, so golden and
   candidate must not share NF instances);
2. run the same packet trace functionally through the sequential
   golden chain and through the reorganized graph produced by
   ``NFCompass.build_graph`` (orchestrator + synthesizer), with the
   GTA mapping applied on top;
3. compare per-packet verdicts (drop/forward), full wire bytes,
   annotations, and the post-trace state of every stateful element;
4. report a structured :class:`DifferentialReport` on mismatch.

Deterministic NF naming makes node ids reproducible across the two
instantiations, which also lets the allocator's mapping (computed on a
third, profiling-polluted instantiation) be transplanted onto the
pristine functional graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.batch import PacketBatch
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction, ServiceFunctionChain
from repro.nf.catalog import NF_CATALOG, make_nf
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficGenerator, TrafficSpec

#: Annotation keys that are merge bookkeeping, not NF semantics.
_BOOKKEEPING_ANNOTATIONS = frozenset({"orig_bytes", "tee_branch"})


# ---------------------------------------------------------------------------
# Chain specification (rebuildable, deterministic names)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSpec:
    """A rebuildable description of an SFC.

    ``build()`` returns fresh NF instances every call with
    *deterministic names*, so two builds produce structurally identical
    element graphs with identical node ids but fully independent state.
    """

    nf_types: Tuple[str, ...]
    name: str = "chain"

    def __post_init__(self):
        unknown = [t for t in self.nf_types if t not in NF_CATALOG]
        if unknown:
            raise ValueError(f"unknown NF types {unknown}")
        if not self.nf_types:
            raise ValueError("a ChainSpec needs at least one NF")

    def build(self) -> ServiceFunctionChain:
        nfs = [make_nf(t, name=f"{self.name}.{index}.{t}")
               for index, t in enumerate(self.nf_types)]
        return ServiceFunctionChain(nfs, name=self.name)

    def describe(self) -> str:
        return " -> ".join(self.nf_types)


# ---------------------------------------------------------------------------
# Canonicalization helpers
# ---------------------------------------------------------------------------

def canonical(value):
    """Convert ``value`` into a hashable, order-insensitive form.

    Used to compare annotations and stateful-element attributes across
    two independent chain instantiations.
    """
    if isinstance(value, Packet):
        return ("packet", value.uid, value.to_bytes(), value.dropped)
    if isinstance(value, dict):
        return tuple(sorted(
            ((canonical(k), canonical(v)) for k, v in value.items()),
            key=repr,
        ))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((canonical(v) for v in value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, (bytes, str, int, float, bool)) or value is None:
        return value
    return repr(value)


def element_state(element) -> Tuple:
    """Canonical semantic state of one element.

    Convention: underscore-prefixed instance attributes hold semantic
    state (NAT binding tables, dedup caches, TCP reassembly buffers);
    public attributes are configuration or runtime counters.
    """
    state = {
        attr: canonical(value)
        for attr, value in vars(element).items()
        if attr.startswith("_")
    }
    return (type(element).__name__, canonical(state))


def chain_state(sfc: ServiceFunctionChain) -> List[Tuple]:
    """Ordered canonical state of every stateful element in the chain."""
    states: List[Tuple] = []
    for nf in sfc.nfs:
        for element in nf.stateful_elements():
            states.append(element_state(element))
    return states


def check_stateful_declaration(nf: NetworkFunction) -> Optional[str]:
    """Cross-check ``nf.stateful`` against its elements.

    Returns a human-readable problem string, or None when consistent.
    An undeclared stateful NF would silently re-enable the
    state-after-drop hazard the orchestrator guards against.
    """
    actual = bool(nf.stateful_elements())
    if actual and not nf.stateful:
        return (f"{nf.name} ({nf.nf_type}) contains stateful elements "
                "but does not declare stateful=True")
    return None


# ---------------------------------------------------------------------------
# Observations and structured diffs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PacketDiff:
    """One per-packet discrepancy between golden and candidate."""

    uid: int
    field: str
    golden: object
    candidate: object

    def describe(self) -> str:
        return (f"uid={self.uid} {self.field}: golden={self.golden!r} "
                f"candidate={self.candidate!r}")


@dataclass
class DifferentialReport:
    """Outcome of one differential run."""

    chain: str
    packet_count: int
    golden_delivered: int
    candidate_delivered: int
    packet_diffs: List[PacketDiff] = field(default_factory=list)
    state_diffs: List[str] = field(default_factory=list)
    declaration_problems: List[str] = field(default_factory=list)
    effective_length: Optional[int] = None
    sequential_length: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not (self.packet_diffs or self.state_diffs
                    or self.declaration_problems)

    def summary(self) -> str:
        verdict = "EQUIVALENT" if self.ok else "MISMATCH"
        lines = [
            f"differential[{self.chain}]: {verdict} over "
            f"{self.packet_count} packets "
            f"(golden delivered {self.golden_delivered}, candidate "
            f"{self.candidate_delivered})"
        ]
        if self.sequential_length is not None:
            lines.append(
                f"  effective length {self.effective_length} vs "
                f"sequential {self.sequential_length}"
            )
        for diff in self.packet_diffs[:10]:
            lines.append("  packet " + diff.describe())
        if len(self.packet_diffs) > 10:
            lines.append(f"  ... {len(self.packet_diffs) - 10} more "
                         "packet diffs")
        for diff in self.state_diffs:
            lines.append("  state " + diff)
        for problem in self.declaration_problems:
            lines.append("  declaration " + problem)
        return "\n".join(lines)


def _observe(packets: Sequence[Packet]) -> Dict[int, Tuple[bytes, Tuple]]:
    """uid -> (wire bytes, canonical annotations) for surviving packets."""
    observations: Dict[int, Tuple[bytes, Tuple]] = {}
    for packet in packets:
        annotations = {k: v for k, v in packet.annotations.items()
                       if k not in _BOOKKEEPING_ANNOTATIONS}
        observations[packet.uid] = (packet.to_bytes(), canonical(annotations))
    return observations


def _run_golden(sfc: ServiceFunctionChain, trace: Sequence[Packet],
                batch_size: int) -> List[Packet]:
    """Sequential reference semantics, batched like the candidate."""
    survivors: List[Packet] = []
    for start in range(0, len(trace), batch_size):
        batch = PacketBatch([p.clone() for p in trace[start:start + batch_size]])
        survivors.extend(sfc.process_batch(batch).packets)
    survivors.sort(key=lambda p: p.seqno)
    return survivors


def _run_candidate(graph, trace: Sequence[Packet],
                   batch_size: int) -> List[Packet]:
    """Functional run through the reorganized deployment graph."""
    survivors: List[Packet] = []
    for start in range(0, len(trace), batch_size):
        batch = PacketBatch([p.clone() for p in trace[start:start + batch_size]])
        sink_batches = graph.run_batch(batch)
        for sink_batch in sink_batches.values():
            survivors.extend(p for p in sink_batch.packets if not p.dropped)
    survivors.sort(key=lambda p: p.seqno)
    return survivors


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------

def run_differential(chain_spec: ChainSpec,
                     traffic_spec: Optional[TrafficSpec] = None,
                     packet_count: int = 96,
                     batch_size: int = 32,
                     compass=None,
                     algorithm: str = "kl",
                     check_state: bool = True,
                     with_partition: bool = True) -> DifferentialReport:
    """Differentially validate one chain against its golden model.

    Builds the chain twice: once for the sequential golden model and
    once for the functional candidate (kept pristine).  When
    ``with_partition``, the GTA allocation runs on a
    :meth:`~repro.elements.graph.ElementGraph.clone` of the candidate
    graph, whose profiling traffic would otherwise pollute stateful
    elements before the differential trace runs.  The allocator's
    mapping is then transplanted onto the pristine candidate graph by
    node id and validated, so the checked deployment is the
    reorganized *and* partitioned one.
    """
    from repro.core.compass import NFCompass
    from repro.sim.mapping import Deployment

    if compass is None:
        compass = NFCompass(algorithm=algorithm)
    spec = traffic_spec or TrafficSpec(
        size_law=FixedSize(128), offered_gbps=10.0, seed=11,
    )
    trace = list(TrafficGenerator(spec).packets(packet_count))

    golden_sfc = chain_spec.build()
    candidate_sfc = chain_spec.build()

    parallel_plan, _synthesis, graph = compass.build_graph(candidate_sfc)

    mapping = None
    if with_partition:
        # The allocator profiles a clone, so the candidate graph stays
        # pristine for the functional comparison below.
        mapping, _report = compass.allocator.allocate(
            graph, spec, batch_size=batch_size,
        )
        deployment = Deployment(graph=graph, mapping=mapping,
                                persistent_kernel=True,
                                name=f"validate:{chain_spec.name}")
        deployment.validate()

    golden_survivors = _run_golden(golden_sfc, trace, batch_size)
    candidate_survivors = _run_candidate(graph, trace, batch_size)

    report = DifferentialReport(
        chain=chain_spec.describe(),
        packet_count=len(trace),
        golden_delivered=len(golden_survivors),
        candidate_delivered=len(candidate_survivors),
        effective_length=(parallel_plan.effective_length
                          if parallel_plan is not None else None),
        sequential_length=len(chain_spec.nf_types),
    )

    # Merge dedup: one logical packet must survive at most once.
    seen: Dict[int, int] = {}
    for packet in candidate_survivors:
        seen[packet.uid] = seen.get(packet.uid, 0) + 1
    for uid, count in seen.items():
        if count > 1:
            report.packet_diffs.append(PacketDiff(
                uid=uid, field="copies", golden=1, candidate=count,
            ))

    golden_obs = _observe(golden_survivors)
    candidate_obs = _observe(candidate_survivors)
    for uid in sorted(set(golden_obs) | set(candidate_obs)):
        in_golden = uid in golden_obs
        in_candidate = uid in candidate_obs
        if in_golden != in_candidate:
            report.packet_diffs.append(PacketDiff(
                uid=uid, field="verdict",
                golden="forward" if in_golden else "drop",
                candidate="forward" if in_candidate else "drop",
            ))
            continue
        golden_bytes, golden_ann = golden_obs[uid]
        candidate_bytes, candidate_ann = candidate_obs[uid]
        if golden_bytes != candidate_bytes:
            report.packet_diffs.append(PacketDiff(
                uid=uid, field="bytes",
                golden=golden_bytes.hex(), candidate=candidate_bytes.hex(),
            ))
        if golden_ann != candidate_ann:
            report.packet_diffs.append(PacketDiff(
                uid=uid, field="annotations",
                golden=golden_ann, candidate=candidate_ann,
            ))

    if check_state:
        golden_states = chain_state(golden_sfc)
        candidate_states = chain_state(candidate_sfc)
        if len(golden_states) != len(candidate_states):
            report.state_diffs.append(
                f"stateful element count differs: golden "
                f"{len(golden_states)}, candidate {len(candidate_states)}"
            )
        else:
            for index, (golden_state, candidate_state) in enumerate(
                    zip(golden_states, candidate_states)):
                if golden_state != candidate_state:
                    report.state_diffs.append(
                        f"stateful element #{index} "
                        f"({golden_state[0]}) diverged"
                    )
        for nf in golden_sfc.nfs:
            problem = check_stateful_declaration(nf)
            if problem is not None:
                report.declaration_problems.append(problem)

    return report
