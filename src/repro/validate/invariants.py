"""Engine invariant hooks.

:class:`ValidatingRecorder` layers assertion checking on top of
:class:`~repro.sim.tracing.EventRecorder`: every simulation event is
checked as it is recorded — monotone clocks (no completion before
ready, no work before the batch arrived, non-decreasing batch
arrivals), non-negative queue waits and packet counts, and per-batch
packet conservation (delivered never exceeds offered).

:func:`verify_packet_conservation` is the functional counterpart: it
pushes real packets through an :class:`~repro.elements.graph.ElementGraph`
and checks that merges/branches neither duplicate nor invent packets,
and that every missing packet is attributable to an element drop.

:func:`verify_timeline` audits the event kernel's
:class:`~repro.sim.kernel.ResourceTimeline` after a run: committed
busy blocks must be sorted and pairwise disjoint, busy/queue-wait
bookkeeping must match the committed intervals, and no resource may
record negative waiting time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.elements.graph import ElementGraph
from repro.net.batch import PacketBatch
from repro.net.packet import Packet
from repro.sim.tracing import EventRecorder

_TOLERANCE = 1e-9


class InvariantViolation(AssertionError):
    """A simulation or execution invariant was violated."""


class ValidatingRecorder(EventRecorder):
    """An EventRecorder that asserts engine invariants as it records.

    Pass it to :meth:`~repro.sim.kernel.SimulationSession.run` via the
    ``recorder`` argument.  With ``strict=True`` (default) the first
    violation raises :class:`InvariantViolation`, aborting the run at
    the exact event that broke the invariant; with ``strict=False``
    violations are collected in :attr:`violations` for later
    inspection.
    """

    def __init__(self, batch_size: Optional[int] = None,
                 strict: bool = True):
        super().__init__()
        self.batch_size = batch_size
        self.strict = strict
        self.violations: List[str] = []
        self._last_arrival = float("-inf")

    # ------------------------------------------------------------------
    def _violate(self, message: str) -> None:
        self.violations.append(message)
        if self.strict:
            raise InvariantViolation(message)

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    def record_node(self, batch_index: int, node_id: str, ready: float,
                    completion: float, packets: float) -> None:
        if ready < -_TOLERANCE:
            self._violate(
                f"batch {batch_index} node {node_id}: negative ready "
                f"time {ready}"
            )
        if completion < ready - _TOLERANCE:
            self._violate(
                f"batch {batch_index} node {node_id}: completion "
                f"{completion} precedes ready {ready} (negative service "
                "or queue wait)"
            )
        if packets < -_TOLERANCE:
            self._violate(
                f"batch {batch_index} node {node_id}: negative packet "
                f"count {packets}"
            )
        super().record_node(batch_index, node_id, ready, completion,
                            packets)

    def record_batch(self, batch_index: int, arrival: float,
                     completion: float, delivered: float) -> None:
        if arrival < self._last_arrival - _TOLERANCE:
            self._violate(
                f"batch {batch_index}: arrival {arrival} precedes the "
                f"previous batch's arrival {self._last_arrival} "
                "(non-monotone batch clock)"
            )
        self._last_arrival = max(self._last_arrival, arrival)
        if completion < arrival - _TOLERANCE:
            self._violate(
                f"batch {batch_index}: completion {completion} precedes "
                f"arrival {arrival}"
            )
        if delivered < -_TOLERANCE:
            self._violate(
                f"batch {batch_index}: negative delivered count "
                f"{delivered}"
            )
        if self.batch_size is not None \
                and delivered > self.batch_size + _TOLERANCE:
            self._violate(
                f"batch {batch_index}: delivered {delivered} exceeds "
                f"offered batch size {self.batch_size} (packets were "
                "duplicated across a merge)"
            )
        for event in self.events_for_batch(batch_index):
            if event.ready < arrival - _TOLERANCE:
                self._violate(
                    f"batch {batch_index} node {event.node_id}: work "
                    f"started at {event.ready}, before the batch "
                    f"arrived at {arrival}"
                )
        super().record_batch(batch_index, arrival, completion, delivered)


# ---------------------------------------------------------------------------
# Resource timeline integrity
# ---------------------------------------------------------------------------

def verify_timeline(timeline) -> List[str]:
    """Audit a :class:`~repro.sim.kernel.ResourceTimeline` after a run.

    Checks, per resource: busy blocks are well-formed (end >= start),
    sorted, and pairwise disjoint (no resource is ever double-booked);
    the busy-seconds total matches the committed block widths; and the
    accumulated queueing delay is non-negative.  Returns a list of
    violations (empty = the timeline is consistent).
    """
    problems: List[str] = []
    for resource in timeline.resources():
        blocks = timeline.intervals(resource)
        for start, end in blocks:
            if end < start - _TOLERANCE:
                problems.append(
                    f"{resource}: busy block ({start}, {end}) ends "
                    "before it starts"
                )
        for (_s1, e1), (s2, _e2) in zip(blocks, blocks[1:]):
            if s2 < e1 - _TOLERANCE:
                problems.append(
                    f"{resource}: busy blocks overlap "
                    f"(..., {e1}) and ({s2}, ...) — double booking"
                )
        busy = timeline.busy.get(resource, 0.0)
        span = timeline.busy_span(resource)
        if abs(span - busy) > max(1e-6, 1e-9 * abs(busy)):
            problems.append(
                f"{resource}: committed block width {span} disagrees "
                f"with busy-seconds bookkeeping {busy}"
            )
        if timeline.queue_wait.get(resource, 0.0) < -_TOLERANCE:
            problems.append(
                f"{resource}: negative accumulated queue wait "
                f"{timeline.queue_wait[resource]}"
            )
    return problems


# ---------------------------------------------------------------------------
# Functional packet conservation
# ---------------------------------------------------------------------------

def verify_packet_conservation(graph: ElementGraph,
                               packets: Sequence[Packet]) -> List[str]:
    """Check packet conservation of one functional graph execution.

    Invariants checked:

    - no logical packet (uid) survives more than once — branch
      duplication must be undone by the merge;
    - every surviving uid was offered at the input — merges never
      invent packets;
    - every offered uid is accounted for: it survived, reached a sink
      as dropped, or is covered by an element's drop counter (elements
      like XorMerge swallow the clones of a branch-dropped packet).

    Returns a list of violations (empty = conservation holds).  The
    graph's element state and counters are mutated by the run, exactly
    as a profiling run would.
    """
    problems: List[str] = []
    input_uids = {p.uid for p in packets}
    drops_before = sum(e.packets_dropped
                       for e in graph.elements().values())
    sink_batches = graph.run_batch(PacketBatch([p.clone() for p in packets]))

    survivor_counts: Dict[int, int] = {}
    dropped_uids = set()
    for batch in sink_batches.values():
        for packet in batch.packets:
            if packet.dropped:
                dropped_uids.add(packet.uid)
            else:
                survivor_counts[packet.uid] = \
                    survivor_counts.get(packet.uid, 0) + 1

    for uid, count in sorted(survivor_counts.items()):
        if count > 1:
            problems.append(
                f"uid {uid} delivered {count} times (merge failed to "
                "deduplicate branch clones)"
            )
        if uid not in input_uids:
            problems.append(
                f"uid {uid} delivered but never offered (packet "
                "invented inside the graph)"
            )

    drops_during = sum(e.packets_dropped
                       for e in graph.elements().values()) - drops_before
    missing = input_uids - set(survivor_counts) - dropped_uids
    if len(missing) > drops_during:
        problems.append(
            f"{len(missing)} offered packets vanished but only "
            f"{drops_during} element drops were counted "
            f"(missing uids: {sorted(missing)[:10]})"
        )
    return problems
