"""The event kernel: resource timelines and reusable simulation sessions.

This module is the scheduling core of the batch-level simulator.  It
splits the old monolithic engine loop into two long-lived objects:

- :class:`ResourceTimeline` — serially reusable resources (CPU cores,
  GPUs, PCIe DMA lanes) with gap-filling FCFS scheduling.  Each
  resource is a :class:`_Lane` that owns its state: busy time as
  sorted slots in index blocks of B slots, each with an upper bound
  on the idle gaps inside it, and the accounting of its tasks (busy
  and queue-wait seconds, task count, wait spans).  One call to the
  lane's ``schedule`` places a task and accounts for it.  A placement
  bisects to the block holding its ready time, walks that block, and
  skips every later block whose bound cannot fit the duration:
  O(B + n/B) per gap fill and O(1) per tail append, where the legacy
  scanner pays O(n) from index zero (and a plain bisect-and-walk is
  O(n) too once a saturated resource's backlog grows).  The bound
  only filters, with an ulp slack; the fit itself is always the
  legacy predicate ``start + duration <= next start``.  Committed
  slots are stored exactly as placed (abutting slots are *not*
  merged): zero-duration tasks may legally land in the seam between
  two back-to-back slots, so placement depends on the commit history,
  not just the busy-time union.  Keeping the history verbatim makes
  every placement bit-identical to the legacy linear scanner (the
  frozen test oracle in ``tests/legacy_engine.py``, compared by the
  Hypothesis differential in
  ``tests/properties/test_timeline_properties.py``).

- :class:`SimulationSession` — per-deployment invariants computed
  once and reused across every ``run``/``measure_capacity`` call:
  topological order, source/sink sets, per-node placement/element
  lookups, per-device offload legs (shares, resolved
  :class:`~repro.hw.device.DeviceSpec`, link-derived DMA resource
  names), fan-out edge tables, and the device boundary-crossing flags
  (whether a node pays H2D/D2H, formerly re-derived per batch by
  graph walks).

Each run compiles the static flow of one admitted batch into a
:class:`_BatchProgram`: a tuple of :class:`_Step` objects in
topological order, each naming the completion times its input arrives
at, the packets its node services, drops and passes on, and the
priced duration of every task it schedules (fan-in merge, host
service, each offload leg's H2D, launch + kernel and D2H, partial
merge, reassembly, split or duplicate).  The analytic model gives
every batch the same packets at every node, so every batch walks that
one tuple with one list of completion times: only ready times differ.
The clock-dependent decisions stay per batch: the ingress verdict, the
interior bounded-queue check, and the breaker, retry, crash, link
stretch and slowdown decisions of offload dispatch, which is one rule
for every run (fault-only runs are the case with no circuit breaker
and a zero retry budget; see ``SimulationSession._offload_step``).  A
batch an interior queue drops is cut there: the steps below the cut
are re-derived from the inputs that did arrive, through the same step
builder, once per set of cut nodes in a run.  Each run prices every
distinct service (node, device or host, rounded packet count,
re-queue or not) once, in a per-run table; see :class:`_PriceTable`.
The steps hold the lanes of the run's timeline they schedule on, so a
task costs one lane call and no lookup by resource name.

The parity contract is the schedule-call order: a batch makes the same
lane ``schedule`` calls, on the same resources, with the same
arguments and in the same order, as a walk that carries it from node
to node and calls :meth:`ResourceTimeline.schedule` (the frozen oracle
in ``tests/legacy_engine.py`` is one), and every float the run
accumulates (overheads, drops, deliveries) is added in the same order.
So every report, ledger, :class:`~repro.sim.tracing.EventRecorder`
event and timeline is bit-identical to that walk's, down to the order
of the per-resource maps (first task, or first wait, per resource).

A run is a function of its inputs: what it mutates is built for it,
and the controller state it ends in leaves on the report's
:class:`~repro.sim.metrics.RunLedger`.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right, insort
from collections import deque
from itertools import chain, repeat
from math import isfinite
from operator import sub
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.elements.offload import OffloadableElement
from repro.hw.costs import BatchStats
from repro.obs import resolve_trace
from repro.overload.breaker import BreakerTable
from repro.overload.config import ControllerState
from repro.sim.mapping import Deployment, Placement
from repro.sim.metrics import (
    LatencyStats,
    OverheadBreakdown,
    Requeues,
    RunLedger,
    ThroughputLatencyReport,
)
from repro.sim.tracing import REQUEUE_CAUSES
from repro.traffic.arrivals import peak_rate_gbps
from repro.traffic.generator import TrafficSpec

#: Inputs smaller than this many packets are considered empty.
_EPSILON_PACKETS = 1e-9

#: Offered load used to saturate deployments (far above any capacity).
SATURATING_GBPS = 200.0


#: Slots per index block of a :class:`_Lane`; a block splits in two
#: when it reaches twice this many.
_BLOCK = 64
#: Relative slack of the lane's block filter.  A block is skipped only
#: when its gap bound falls short of the duration by more than this
#: fraction of (last end + duration): ``fl(a - b)`` and
#: ``a >= fl(b + d)`` can disagree in the last place, and the slack
#: (2^-40, far above the few ulps the two roundings can differ by)
#: keeps the filter conservative.
_GAP_SLACK = 2.0 ** -40


class _Lane:
    """One resource: its committed busy slots and its accounting.

    The slots are non-overlapping (possibly abutting) half-open
    intervals sorted by start, kept as consecutive blocks of parallel
    ``starts``/``ends`` lists.  Only positive-duration tasks are
    committed, so ends never decrease and are usable as a bisect key.
    Slots are never merged: the seam between two back-to-back slots is
    observable to zero-duration placements, exactly as in the legacy
    scanner.

    Each block keeps ``last_ends`` (its largest end, the key that finds
    the block holding a ready time) and ``gaps``, an upper bound on
    the idle gaps ``starts[k] - ends[k-1]`` in front of its slots (the
    first slot's gap reaches back to the previous block's last end).
    A placement walks the block holding ``ready`` slot by slot, then
    skips every later block whose bound cannot fit the duration:
    O(B + n/B) per gap fill for blocks of B slots, O(1) per tail
    append.  The bound is only a filter, with a :data:`_GAP_SLACK`
    margin; whether a slot fits is always decided by the legacy
    predicate ``starts[k] >= start + duration``, so every placement
    is bit-identical to the linear scanner.  Committing a slot only
    shrinks gaps, so bounds are never recomputed on insert; a walk
    that crosses a whole block without a fit tightens that block's
    bound to its exact largest gap.

    The lane also accounts for its tasks: ``busy`` seconds,
    ``queue_wait`` (``start - ready`` summed), the ``tasks`` count and,
    for every task that waited, its span ``[ready, start)`` as one
    entry of ``wait_readies`` and one of ``wait_starts``.  Under a
    ``queue_limit`` both lists are kept sorted, so the waiting depth
    at *t* is ``count(ready <= t) - count(start <= t)``, two bisects;
    otherwise they are appended in schedule order.  :meth:`schedule`
    places a task and accounts for it in one call.

    The first time the lane gets a task, and the first time a task
    waits on it, it appends its name to the timeline's ``used`` and
    ``waited`` lists: the timeline's per-resource maps follow those
    orders.  The lane holds those two lists, never the timeline, so a
    run's timeline is freed by reference counting, not left for the
    cyclic collector.
    """

    __slots__ = ("name", "limit", "starts", "ends", "last_ends", "gaps",
                 "busy", "queue_wait", "tasks", "wait_readies",
                 "wait_starts", "_used", "_waited")

    def __init__(self, name: str, limit: Optional[int], used: List[str],
                 waited: List[str]):
        self.name = name
        self.limit = limit
        self.starts: List[List[float]] = []
        self.ends: List[List[float]] = []
        self.last_ends: List[float] = []
        self.gaps: List[float] = []
        self.busy = 0.0
        self.queue_wait = 0.0
        self.tasks = 0
        self.wait_readies: List[float] = []
        self.wait_starts: List[float] = []
        self._used = used
        self._waited = waited

    def schedule(self, ready: float, duration: float) -> Tuple[float, float]:
        """Commit the earliest fitting slot at or after ``ready`` and
        account for the task; returns ``(start, end)``."""
        if not duration >= 0.0:
            raise ValueError("duration must be non-negative")
        last_ends = self.last_ends
        start = ready
        # The block the slot goes into; None: after every committed
        # slot.
        block = None
        if last_ends and ready < last_ends[-1]:
            # The block holding the first slot that ends after the
            # ready time; earlier slots cannot constrain the placement.
            block = bisect_right(last_ends, ready)
            starts = self.starts[block]
            ends = self.ends[block]
            index = bisect_right(ends, ready)
            count = len(starts)
            # The legacy linear scan, from that slot on.
            while index < count:
                if starts[index] >= start + duration:
                    break
                if ends[index] > start:
                    start = ends[index]
                index += 1
            else:
                # Every later block is entered at the previous block's
                # last end.  A block whose gap bound cannot fit the
                # duration is skipped: the scan would only carry
                # ``start`` to its last end.
                gaps = self.gaps
                floor = duration - (last_ends[-1] + duration) * _GAP_SLACK
                for block in range(block + 1, len(last_ends)):
                    if gaps[block] < floor:
                        continue
                    starts = self.starts[block]
                    ends = self.ends[block]
                    start = entry = last_ends[block - 1]
                    index = 0
                    count = len(starts)
                    while index < count:
                        if starts[index] >= start + duration:
                            break
                        if ends[index] > start:
                            start = ends[index]
                        index += 1
                    else:
                        gaps[block] = max(map(sub, starts,
                                              chain((entry,), ends)))
                        continue
                    break
                else:
                    start = last_ends[-1]
                    block = None
        end = start + duration
        if duration > 0:
            if block is not None:
                # In front of slot ``index`` of ``block``.
                if block == 0 and index == 0:
                    # The first slot had no gap in front of it; now it
                    # has.
                    gap = starts[0] - end
                    if gap > self.gaps[0]:
                        self.gaps[0] = gap
                starts.insert(index, start)
                ends.insert(index, end)
                if len(starts) >= 2 * _BLOCK:
                    self._split(block)
            elif last_ends:
                block = len(last_ends) - 1
                gap = start - last_ends[block]
                if gap > self.gaps[block]:
                    self.gaps[block] = gap
                starts = self.starts[block]
                starts.append(start)
                self.ends[block].append(end)
                last_ends[block] = end
                if len(starts) >= 2 * _BLOCK:
                    self._split(block)
            else:
                self.starts.append([start])
                self.ends.append([end])
                last_ends.append(end)
                self.gaps.append(0.0)
        self.busy += duration
        self.queue_wait += start - ready
        tasks = self.tasks
        if not tasks:
            self._used.append(self.name)
        self.tasks = tasks + 1
        if start > ready:
            readies = self.wait_readies
            if not readies:
                self._waited.append(self.name)
            if self.limit is None:
                readies.append(ready)
                self.wait_starts.append(start)
            else:
                insort(readies, ready)
                insort(self.wait_starts, start)
        return start, end

    def _split(self, block: int) -> None:
        """Split a full block in two; both halves keep its bound."""
        starts = self.starts[block]
        ends = self.ends[block]
        self.starts.insert(block + 1, starts[_BLOCK:])
        self.ends.insert(block + 1, ends[_BLOCK:])
        self.last_ends.insert(block + 1, self.last_ends[block])
        self.gaps.insert(block + 1, self.gaps[block])
        del starts[_BLOCK:]
        del ends[_BLOCK:]
        self.last_ends[block] = ends[-1]

    def slots(self) -> List[Tuple[float, float]]:
        """Committed slots as sorted ``(start, end)`` pairs."""
        return [slot for starts, ends in zip(self.starts, self.ends)
                for slot in zip(starts, ends)]

    def waiting_depth(self, t: float) -> int:
        """Tasks waiting (ready but not started) at ``t``."""
        readies = self.wait_readies
        starts = self.wait_starts
        if self.limit is None:
            return sum(1 for ready, start in zip(readies, starts)
                       if ready <= t < start)
        return bisect_right(readies, t) - bisect_right(starts, t)

    def would_overflow(self, t: float) -> bool:
        """True when one more waiter at ``t`` would exceed the limit."""
        limit = self.limit
        return limit is not None and (
            bisect_right(self.wait_readies, t)
            - bisect_right(self.wait_starts, t) >= limit)

    def max_queue_depth(self) -> int:
        """Peak number of simultaneously waiting tasks (0 if none).

        The depth just after the k-th smallest ready time r is k minus
        the waits started at or before r; a start at r ends its wait
        before a wait from r begins, so back-to-back waits do not
        overlap.
        """
        readies = sorted(self.wait_readies)
        started = map(bisect_right, repeat(sorted(self.wait_starts)), readies)
        return max(map(sub, range(1, len(readies) + 1), started), default=0)


class ResourceTimeline:
    """Serially reusable resources with gap-filling scheduling.

    Each resource is a :class:`_Lane` that keeps its committed busy
    intervals; a new task is placed in the earliest gap (at or after
    its ready time) that fits.  Without gap filling, the batch-major
    simulation order would create a head-of-line artifact: batch
    *i+1*'s first element could never use the idle time a core has
    while batch *i* is away on the GPU, and every pipeline would
    serialize at its round-trip time instead of its bottleneck stage.

    Each lane also accounts for its own tasks: busy seconds, queueing
    delay (``start - ready`` per task), task count and wait spans.
    The timeline exposes them as read-only maps (:attr:`busy`,
    :attr:`queue_wait`, :attr:`task_counts`) over the resources that
    have tasks, in the order each got its first task, and they feed
    the bottleneck fields of
    :class:`~repro.sim.metrics.ThroughputLatencyReport`.  The kernel's
    compiled steps hold their lanes (:meth:`lane`) and call
    :meth:`_Lane.schedule` directly; :meth:`schedule` is the same
    call by resource name, which first rejects a ready time or
    duration that is not finite.

    An optional ``queue_limit`` bounds how many tasks may be *waiting*
    (ready but not started) on one resource at once.  The timeline
    itself never rejects work — scheduling semantics and placements
    are byte-identical whatever the limit — it only answers
    :meth:`would_overflow` so the simulation loop can apply its drop
    policy before committing a batch.  Only under a limit do the
    lanes keep their wait spans sorted for O(log n) depth queries.
    """

    __slots__ = ("queue_limit", "_lanes", "_used", "_waited")

    def __init__(self, queue_limit: Optional[int] = None):
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.queue_limit = queue_limit
        self._lanes: Dict[str, _Lane] = {}
        # Resource names in the order each got its first task and its
        # first waiting task; the lanes append to them.
        self._used: List[str] = []
        self._waited: List[str] = []

    def lane(self, resource: str) -> _Lane:
        """The lane of ``resource``, made on first use."""
        lane = self._lanes.get(resource)
        if lane is None:
            lane = self._lanes[resource] = _Lane(
                resource, self.queue_limit, self._used, self._waited)
        return lane

    def schedule(self, resource: str, ready: float,
                 duration: float) -> Tuple[float, float]:
        """Occupy ``resource`` for ``duration``; returns (start, end)."""
        if not isfinite(ready):
            raise ValueError(f"ready time must be finite, got {ready!r}")
        if not isfinite(duration):
            raise ValueError(f"duration must be finite, got {duration!r}")
        return self.lane(resource).schedule(ready, duration)

    def _view(self, field: str) -> Mapping:
        lanes = self._lanes
        return MappingProxyType({resource: getattr(lanes[resource], field)
                                 for resource in self._used})

    @property
    def busy(self) -> Mapping[str, float]:
        """Busy seconds per resource, in first-task order."""
        return self._view("busy")

    @property
    def queue_wait(self) -> Mapping[str, float]:
        """Summed ``start - ready`` per resource, in first-task order."""
        return self._view("queue_wait")

    @property
    def task_counts(self) -> Mapping[str, int]:
        """Scheduled tasks per resource, in first-task order."""
        return self._view("tasks")

    def waiting_depth(self, resource: str, t: float) -> int:
        """Tasks waiting (ready but not started) on ``resource`` at
        ``t``: two bisects under a ``queue_limit``, a scan of the wait
        spans otherwise."""
        lane = self._lanes.get(resource)
        return 0 if lane is None else lane.waiting_depth(t)

    def would_overflow(self, resource: str, t: float) -> bool:
        """True when admitting one more waiter at ``t`` would exceed
        the ``queue_limit``."""
        lane = self._lanes.get(resource)
        return lane is not None and lane.would_overflow(t)

    def max_queue_depths(self) -> Dict[str, int]:
        """Peak number of simultaneously waiting tasks per resource.

        A task waits over ``[ready, start)``; the depth of a resource
        at time *t* is how many such half-open spans cover *t*, so
        back-to-back waits do not overlap.  Each peak comes from the
        lane's sorted ready and start times.  Resources that never
        queued are omitted; the others come in the order each first
        had a task wait.
        """
        lanes = self._lanes
        return {resource: lanes[resource].max_queue_depth()
                for resource in self._waited}

    def resources(self) -> List[str]:
        """The resources that have tasks, sorted."""
        return sorted(self._used)

    def intervals(self, resource: str) -> List[Tuple[float, float]]:
        """Committed busy slots (sorted, non-overlapping, may abut)."""
        lane = self._lanes.get(resource)
        if lane is None:
            return []
        return lane.slots()

    def busy_span(self, resource: str) -> float:
        """Total busy-block width; equals the summed task durations."""
        lane = self._lanes.get(resource)
        if lane is None:
            return 0.0
        return sum(e - s for s, e in lane.slots())


class _InFlight:
    """One admitted batch's deliverables, kept until it completes.

    Head-drop sacrifices the oldest of these: its delivery is
    cancelled at settlement (packets move to dropped, the latency
    sample at ``latency_index`` is withdrawn).  The busy time it
    committed is sunk — the schedule is never retracted.
    """

    __slots__ = ("completion", "delivered", "bytes", "slo_bytes",
                 "latency_index")

    def __init__(self, completion: float, delivered: float,
                 nbytes: float, slo_bytes: float, latency_index: int):
        self.completion = completion
        self.delivered = delivered
        self.bytes = nbytes
        self.slo_bytes = slo_bytes
        self.latency_index = latency_index


class _Tally:
    """One run's :class:`RunLedger` while the run counts: ``requeues``
    maps each cause to [batches, packets, host seconds], and every
    other slot is the ledger field of the same name."""

    __slots__ = ("requeues", "degraded_transfers", "slowed_kernels",
                 "shed_batches", "queue_dropped_batches",
                 "head_cancelled_batches", "breaker_trips",
                 "retry_attempts", "state")

    def __init__(self, state: ControllerState):
        self.requeues = {cause: [0, 0.0, 0.0]
                         for cause in REQUEUE_CAUSES}
        self.degraded_transfers = self.slowed_kernels = 0
        self.shed_batches = self.queue_dropped_batches = 0
        self.head_cancelled_batches = self.breaker_trips = 0
        self.retry_attempts = 0
        self.state = state

    def freeze(self, peak_rate_gbps: float) -> RunLedger:
        return RunLedger(
            peak_rate_gbps=peak_rate_gbps,
            **{cause: Requeues(*counts)
               for cause, counts in self.requeues.items()},
            **{name: getattr(self, name) for name in self.__slots__[1:]},
        )


class _OverloadState:
    """Per-run overload bookkeeping (one instance per ``_run`` call).

    Holds the run's admit function and breaker table (built from the
    config's controller state), the report's queue drops, shed packets
    and SLO goodput, plus the live in-flight window and the smoothed
    span estimate deadline-drop projects completions with.
    """

    #: EWMA weight of the newest per-batch span sample.
    _SPAN_ALPHA = 0.3

    __slots__ = (
        "admit", "breakers", "retry", "queue_limit", "policy",
        "deadline_seconds", "slo_seconds", "ingress_resource", "tally",
        "queue_drops", "shed_packets", "slo_delivered", "inflight",
        "cancelled", "ewma_span", "max_completion",
    )

    def __init__(self, config, ingress_resource: str,
                 mean_batch_gap: float, tally: _Tally):
        self.admit = (None if config.admission is None
                      else config.admission.gate(config.state,
                                                 mean_batch_gap))
        self.breakers = (None if config.breaker is None
                         else BreakerTable(config.breaker,
                                           config.state.breakers))
        self.retry = config.retry
        self.queue_limit = config.queue_limit
        self.policy = config.drop_policy
        self.deadline_seconds = config.deadline_seconds
        self.slo_seconds = (None if config.slo_ms is None
                            else config.slo_ms * 1e-3)
        self.ingress_resource = ingress_resource
        self.tally = tally
        self.queue_drops: Dict[str, float] = {}
        self.shed_packets = 0.0
        self.slo_delivered = 0.0
        self.inflight: "deque[_InFlight]" = deque()
        self.cancelled: List[_InFlight] = []
        self.ewma_span: Optional[float] = None
        self.max_completion = 0.0

    def note_queue_drop(self, resource: str, packets: float) -> None:
        self.queue_drops[resource] = (
            self.queue_drops.get(resource, 0.0) + packets
        )
        self.tally.queue_dropped_batches += 1

    def ingress(self, arrival: float, packets: float,
                timeline: ResourceTimeline
                ) -> Tuple[Optional[str], Optional[_InFlight]]:
        """Admission + ingress-queue policy for one arriving batch.

        Returns ``(verdict, entry)``: verdict ``None`` admits the
        batch normally, ``"shed"`` means the admission controller
        rejected it, ``"drop"`` means the bounded ingress queue
        overflowed and the policy sacrificed the arrival, and
        ``"swap"`` (head-drop) means the arrival takes over the
        returned sacrificed batch's committed service slot — the old
        batch's delivery is cancelled, the newcomer inherits its
        completion, and no new busy time is scheduled.
        """
        if self.queue_limit is not None:
            # Batch arrivals are non-decreasing, so the in-flight
            # window can be pruned against the arrival clock.
            inflight = self.inflight
            while inflight and inflight[0].completion <= arrival:
                inflight.popleft()
        if self.admit is not None and not self.admit(arrival):
            self.tally.shed_batches += 1
            self.shed_packets += packets
            return "shed", None
        if (self.queue_limit is None
                or not timeline.would_overflow(self.ingress_resource,
                                               arrival)):
            return None, None
        policy_name = self.policy.name
        if policy_name == "head":
            if self.inflight:
                entry = self.inflight.popleft()
                self.cancelled.append(entry)
                self.tally.head_cancelled_batches += 1
                return "swap", entry
            # Nothing in flight to sacrifice (the backlog is all
            # still-waiting work): degrade to tail-drop.
        elif policy_name == "deadline":
            if self.ewma_span is None:
                return None, None  # no span estimate yet; admit
            projected = max(arrival, self.max_completion) \
                + self.ewma_span
            if projected - arrival <= self.deadline_seconds:
                return None, None  # projected to meet the SLO; admit
        self.note_queue_drop(self.ingress_resource, packets)
        return "drop", None

    def _on_time_bytes(self, arrival: float, completion: float,
                       nbytes: float) -> float:
        """``nbytes`` if the batch met the SLO, else 0.0; counted into
        the SLO goodput."""
        if (self.slo_seconds is not None
                and completion - arrival > self.slo_seconds):
            nbytes = 0.0
        self.slo_delivered += nbytes
        return nbytes

    def note_swapped(self, arrival: float, inherited: _InFlight,
                     latency_index: int) -> None:
        """Track a head-drop newcomer that took over ``inherited``'s
        service slot: same completion and deliverables, fresher
        arrival (so a shorter latency and its own SLO verdict)."""
        slo_bytes = self._on_time_bytes(arrival, inherited.completion,
                                        inherited.bytes)
        self.inflight.append(_InFlight(inherited.completion,
                                       inherited.delivered,
                                       inherited.bytes, slo_bytes,
                                       latency_index))

    def note_delivered(self, arrival: float, completion: float,
                       delivered: float, nbytes: float,
                       latency_index: int) -> None:
        """Track one delivered batch for SLO goodput and head/deadline
        policy state."""
        slo_bytes = self._on_time_bytes(arrival, completion, nbytes)
        if self.queue_limit is None:
            return
        span = completion - max(arrival, self.max_completion)
        if span < 0.0:
            span = 0.0
        self.ewma_span = (
            span if self.ewma_span is None
            else (1.0 - self._SPAN_ALPHA) * self.ewma_span
            + self._SPAN_ALPHA * span
        )
        if completion > self.max_completion:
            self.max_completion = completion
        self.inflight.append(_InFlight(completion, delivered, nbytes,
                                       slo_bytes, latency_index))


class _OffloadLeg:
    """One offload device's precomputed per-node invariants.

    The binary pipeline had exactly one of these (the GPU); a
    device-neutral placement carries one leg per non-host device with
    a positive share, in placement order.
    """

    __slots__ = (
        "device_id", "share", "device", "h2d_resource", "d2h_resource",
        "pays_h2d", "pays_d2h",
    )

    def __init__(self, device_id: str, share: float, device,
                 pays_h2d: bool, pays_d2h: bool):
        self.device_id = device_id
        self.share = share
        self.device = device
        # Links are full duplex with independent DMA engines per
        # direction; modelling one shared resource would forbid the
        # h2d/kernel/d2h pipelining real frameworks rely on.  The
        # resource prefix comes from the link spec, so PCIe devices
        # keep the historical ``pcie:{gpu}:h2d`` ids.
        link_name = device.link.name if device.link is not None else "link"
        self.h2d_resource = f"{link_name}:{device_id}:h2d"
        self.d2h_resource = f"{link_name}:{device_id}:d2h"
        self.pays_h2d = pays_h2d
        self.pays_d2h = pays_d2h


class _PriceTable:
    """The service prices of one run, each distinct service priced once.

    Within a run a batch's price depends only on its node, the device
    (or host core) that serves it, its rounded packet count and whether
    it is a host re-queue: mean packet bytes, match profile, co-run
    pressure, CPU inflation, co-running kernels, the persistent kernel
    and the re-queue penalty are fixed for the run.  So each price is
    computed on first use and looked up after, before any
    :class:`~repro.hw.costs.BatchStats` is built; the run's
    :class:`_BatchProgram` and each of its cut re-derivations price
    through one table.  Fault stretch and slowdown depend on the
    simulated clock: the dispatch multiplies them onto the priced
    value and never stores the product.  A table serves one run only;
    sessions are reused with other specs and interference.
    """

    __slots__ = ("cost", "mean_bytes", "match_profile", "pressure",
                 "inflation", "corun_kernels", "persistent_kernel",
                 "requeue_penalty", "_prices")

    def __init__(self, cost, spec: TrafficSpec, mean_bytes: float,
                 cpu_time_inflation: float, co_run_pressure_bytes: float,
                 gpu_corun_kernels: int, persistent_kernel: bool,
                 requeue_penalty: float):
        self.cost = cost
        self.mean_bytes = mean_bytes
        self.match_profile = spec.match_profile
        self.pressure = co_run_pressure_bytes
        self.inflation = cpu_time_inflation
        self.corun_kernels = gpu_corun_kernels
        self.persistent_kernel = persistent_kernel
        self.requeue_penalty = requeue_penalty
        self._prices: Dict[tuple, object] = {}

    def _stats(self, packet_count: int) -> BatchStats:
        return BatchStats(batch_size=packet_count,
                          mean_packet_bytes=self.mean_bytes,
                          match_profile=self.match_profile)

    def host(self, plan: "_NodePlan", packets: float) -> float:
        """Host-core service seconds of ``packets`` at ``plan``."""
        count = max(1, round(packets))
        key = (plan.node_id, plan.host_resource, count, False)
        price = self._prices.get(key)
        if price is None:
            price = self._prices[key] = self.cost.cpu_batch_seconds(
                plan.element, self._stats(count),
                co_run_pressure_bytes=self.pressure,
            ) * self.inflation
        return price

    def device(self, plan: "_NodePlan", leg: _OffloadLeg,
               packets: float):
        """Fig. 4 timing of ``packets`` on one offload leg."""
        count = max(1, round(packets))
        key = (plan.node_id, leg.device_id, count, False)
        timing = self._prices.get(key)
        if timing is None:
            timing = self._prices[key] = self.cost.device_batch_timing(
                plan.element, self._stats(count), leg.device,
                persistent_kernel=self.persistent_kernel,
                co_running_kernels=self.corun_kernels,
            )
        return timing

    def requeue(self, plan: "_NodePlan", packets: float) -> float:
        """Host seconds of a bypassed leg's ``packets``, re-queue
        penalty included (co-run pressure does not apply)."""
        count = max(1, round(packets))
        key = (plan.node_id, plan.host_resource, count, True)
        price = self._prices.get(key)
        if price is None:
            price = self._prices[key] = self.cost.cpu_batch_seconds(
                plan.element, self._stats(count),
            ) * self.inflation * self.requeue_penalty
        return price


class _NodePlan:
    """Per-node invariants precomputed once per session."""

    __slots__ = (
        "node_id", "element", "placement", "is_tee", "is_sink",
        "host_share", "host_resource", "offloads", "needs_partial_merge",
        "edges_by_port",
    )

    def __init__(self, node_id: str, element, placement: Placement,
                 is_sink: bool, offloads: Tuple[_OffloadLeg, ...],
                 edges_by_port: Dict[int, Tuple[str, ...]]):
        self.node_id = node_id
        self.element = element
        self.placement = placement
        self.is_tee = element.kind == "Tee"
        self.is_sink = is_sink
        self.offloads = offloads
        if offloads:
            self.host_share = placement.host_share
        else:
            # Non-offloadable elements always service the full batch
            # on their host core, whatever the placement says.
            self.host_share = 1.0
        #: The node's host core: its host share, and the merges,
        #: splits and duplications around it, run there.
        self.host_resource = placement.host
        # Service is split across (host + offload legs); rejoining the
        # parts costs a merge (Snap's completion-queue pattern).
        parts = len(offloads) + (1 if self.host_share > 0.0 else 0)
        self.needs_partial_merge = parts > 1
        self.edges_by_port = edges_by_port


def _crosses_device(deployment: Deployment, node_id: str,
                    device_id: str, neighbours: List[str]) -> bool:
    """Whether ``node_id``'s work on ``device_id`` pays the PCIe
    crossing on the side of ``neighbours``: its predecessors (H2D) or
    its successors (D2H).  It skips the crossing only when the node and
    every neighbour, of which there is at least one, run wholly on the
    device.
    """
    if deployment.mapping[node_id].share_of(device_id) < 1.0:
        return True
    if not neighbours:
        return True
    for neighbour in neighbours:
        placement = deployment.mapping.get(neighbour)
        if placement is None or placement.share_of(device_id) < 1.0:
            return True
    return False


class _StepLeg:
    """One offload leg of a :class:`_Step`: the packets it carries and
    their priced Fig. 4 timing (H2D and D2H already zero where the
    node skips that crossing), the host price of re-queueing them, and
    the lanes of its H2D link, device and D2H link."""

    __slots__ = ("leg", "packets", "h2d", "launch", "kernel", "d2h",
                 "window", "requeue", "h2d_lane", "device_lane",
                 "d2h_lane")

    def __init__(self, leg: _OffloadLeg, packets: float, timing,
                 requeue: float, timeline: ResourceTimeline):
        self.leg = leg
        self.packets = packets
        self.h2d = timing.h2d if leg.pays_h2d else 0.0
        self.launch = timing.launch
        self.kernel = timing.kernel
        self.d2h = timing.d2h if leg.pays_d2h else 0.0
        #: The dispatch window a fault or guard decision is judged on
        #: (queueing ignored).
        self.window = self.h2d + self.launch + self.kernel + self.d2h
        self.requeue = requeue
        self.h2d_lane = timeline.lane(leg.h2d_resource)
        self.device_lane = timeline.lane(leg.device_id)
        self.d2h_lane = timeline.lane(leg.d2h_resource)


class _Step:
    """One node's part in the batch program, built and priced from the
    inputs that reach it (the step builder).

    ``feed`` lists those inputs as ``(completion index, packets)``
    pairs, in the order the nodes above pass them on; index 0 is the
    batch's arrival and step ``k`` of a program completes at index
    ``k + 1``.  ``inputs`` keeps each index once.  Every duration is
    priced: ``merge`` (fan-in of more than one input), ``host``, the
    ``legs``, ``partial_merge``, ``reassembly`` and the fan-out's
    ``split`` or ``duplicate``; ``None`` means no task is scheduled.
    ``bounded`` marks a node whose bounded queue is checked before the
    batch enters it.  The step holds the lanes it schedules on: the
    node's host core (``host_lane``), which also merges, splits and
    duplicates; each leg holds its own.
    """

    __slots__ = ("plan", "inputs", "packets", "bounded", "host_lane",
                 "merge", "host", "legs", "partial_merge",
                 "reassembly", "dropped", "survivors", "delivers", "split",
                 "duplicate")

    def __init__(self, program: "_BatchProgram", plan: _NodePlan,
                 feed: List[Tuple[int, float]], packets: float,
                 fractions: Dict[int, float]):
        prices = program.prices
        cost = prices.cost
        timeline = program.timeline
        count = max(1, round(packets))
        self.plan = plan
        self.inputs = tuple(dict.fromkeys(index for index, _ in feed))
        self.packets = packets
        self.bounded = (program.bounded
                        and plan.node_id not in program.session.source_set)
        self.host_lane = timeline.lane(plan.host_resource)
        self.merge = cost.merge_seconds(count) if len(feed) > 1 else None
        host_packets = packets * plan.host_share
        self.host = (prices.host(plan, host_packets)
                     if host_packets > _EPSILON_PACKETS else None)
        legs = []
        for leg in plan.offloads:
            leg_packets = packets * leg.share
            if leg_packets > _EPSILON_PACKETS:
                legs.append(_StepLeg(leg, leg_packets,
                                     prices.device(plan, leg, leg_packets),
                                     prices.requeue(plan, leg_packets),
                                     timeline))
        self.legs = tuple(legs)
        # Split service re-merges the parts in order (Snap's
        # completion-queue pattern).
        self.partial_merge = (cost.merge_seconds(count)
                              if plan.needs_partial_merge else None)
        self.reassembly = (cost.reassembly_seconds(count)
                           if program.session.stateful_reassembly
                           and plan.offloads else None)
        survivors = packets * (1.0 - program.profile.drop_for(plan.node_id))
        self.survivors = survivors
        self.dropped = packets - survivors
        self.delivers = plan.is_sink and survivors > _EPSILON_PACKETS
        # Batch split (classifiers) or duplication (Tee) on fan-out.
        self.split = self.duplicate = None
        connected = sum(1 for port in fractions if fractions[port] > 0)
        if connected > 1:
            kept = max(1, round(survivors))
            if plan.is_tee:
                self.duplicate = cost.duplicate_seconds(
                    kept, survivors * program.mean_bytes * (connected - 1))
            else:
                self.split = cost.split_seconds(kept)


class _BatchProgram:
    """The static flow of one admitted batch, compiled once per run.

    The analytic model gives every batch the same packets at every
    node; only ready times differ.  So a run resolves, once, which
    steps each node's input comes from, the packets it services,
    drops and passes on, and the price of every task it schedules
    (:class:`_Step`), and the lanes of the run's timeline each step
    schedules on.  Each batch then walks :attr:`steps` with one list
    of completion times, making the same lane schedule calls, with the
    same arguments and in the same order, as a walk that carried the
    batch from node to node.

    A batch cut by an interior bounded-queue drop loses the cut node's
    output, so the nodes below it see only the inputs that did arrive:
    fewer packets, perhaps no fan-in merge (an ``XorMerge`` behind a
    ``Tee`` then has one input), other prices.  :meth:`below`
    re-derives those steps through the same step builder
    (:class:`_Step`), once per set of cut nodes in a run.
    """

    __slots__ = ("session", "profile", "prices", "timeline", "batch_size",
                 "mean_bytes", "bounded", "steps", "delivered", "_below")

    def __init__(self, session: "SimulationSession", profile,
                 prices: _PriceTable, timeline: ResourceTimeline,
                 batch_size: int, mean_bytes: float, bounded: bool):
        self.session = session
        self.profile = profile
        self.prices = prices
        self.timeline = timeline
        self.batch_size = batch_size
        self.mean_bytes = mean_bytes
        self.bounded = bounded
        self._below: Dict[frozenset, Tuple[Tuple[_Step, ...], float]] = {}
        #: The intact batch's steps and the packets it delivers.
        self.steps, self.delivered = self._compile(frozenset())

    def below(self, cut: frozenset,
              start: int) -> Tuple[Tuple[_Step, ...], float]:
        """The steps from index ``start`` on, and the packets the batch
        delivers, when the nodes in ``cut`` dropped it; ``start``
        follows the last node cut."""
        derived = self._below.get(cut)
        if derived is None:
            steps, delivered = self._compile(cut)
            derived = self._below[cut] = (steps[start:], delivered)
        return derived

    def _compile(self, cut: frozenset) -> Tuple[Tuple[_Step, ...], float]:
        """The batch's steps in topological order when the nodes in
        ``cut`` drop it, and the packets its sinks deliver."""
        session = self.session
        graph = session.deployment.graph
        # node -> its inputs as (completion index, packets), in the
        # order the nodes above it pass them on.
        feeds: Dict[str, List[Tuple[int, float]]] = {
            node: [(0, float(self.batch_size))]
            for node in session.source_nodes
        }
        steps: List[_Step] = []
        delivered = 0.0
        for node_id in session.order:
            feed = feeds.get(node_id)
            if not feed:
                continue
            packets = sum(share for _index, share in feed)
            if packets <= _EPSILON_PACKETS:
                continue
            plan = session.plans[node_id]
            fractions = ({} if plan.is_sink
                         else self.profile.fractions_for(graph, node_id))
            step = _Step(self, plan, feed, packets, fractions)
            steps.append(step)
            if node_id in cut:
                continue
            if step.delivers:
                delivered += step.survivors
            for port, fraction in fractions.items():
                share = step.survivors * fraction
                if share <= _EPSILON_PACKETS:
                    continue
                for dst in plan.edges_by_port.get(port, ()):
                    feeds.setdefault(dst, []).append((len(steps), share))
        return tuple(steps), delivered


def check_batches(**counts: int) -> None:
    """Reject a batch size or count below 1, naming the keyword.

    :meth:`SimulationSession.run` checks both; the epoch loops check
    an epoch's ``batch_count`` before they move any of their state,
    with the same message.
    """
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


class SimulationSession:
    """A deployment prepared for repeated simulation runs.

    Construction validates the deployment once and precomputes every
    graph-derived invariant the per-batch loop needs, so callers that
    evaluate the same deployment many times (capacity races, load
    sweeps, optimization loops) stop paying the topological sort and
    boundary-crossing graph walks per call.
    """

    def __init__(self, engine, deployment: Deployment):
        deployment.validate()
        self.engine = engine
        self.cost = engine.cost
        self.deployment = deployment
        graph = deployment.graph
        self.order: List[str] = graph.topological_order()
        self.source_nodes: Tuple[str, ...] = tuple(graph.sources())
        self.source_set = frozenset(self.source_nodes)
        self.sink_nodes = frozenset(graph.sinks())
        self.stateful_reassembly = deployment.stateful_reassembly
        self.plans: Dict[str, _NodePlan] = {}
        for node_id in self.order:
            placement = deployment.mapping[node_id]
            element = graph.element(node_id)
            edges_by_port: Dict[int, List[str]] = {}
            for edge in graph.out_edges(node_id):
                edges_by_port.setdefault(edge.src_port, []).append(edge.dst)
            offloads: Tuple[_OffloadLeg, ...] = ()
            if (isinstance(element, OffloadableElement)
                    and element.offloadable):
                offloads = tuple(
                    _OffloadLeg(
                        device_id=device_id,
                        share=share,
                        device=self.cost.device_for(device_id),
                        pays_h2d=_crosses_device(
                            deployment, node_id, device_id,
                            graph.predecessors(node_id)),
                        pays_d2h=_crosses_device(
                            deployment, node_id, device_id,
                            graph.successors(node_id)),
                    )
                    for device_id, share
                    in placement.offload_shares.items()
                )
            self.plans[node_id] = _NodePlan(
                node_id=node_id,
                element=element,
                placement=placement,
                is_sink=node_id in self.sink_nodes,
                offloads=offloads,
                edges_by_port={port: tuple(dsts)
                               for port, dsts in edges_by_port.items()},
            )
        #: The ResourceTimeline of the most recent :meth:`run`, kept
        #: for bottleneck inspection and timeline-integrity auditing.
        self.last_timeline: Optional[ResourceTimeline] = None
        #: Completed :meth:`run` calls; runs after the first reuse the
        #: cached invariants above (counted as ``session.cache_hits``).
        self.runs_completed = 0

    # ------------------------------------------------------------------
    def run(self, spec: TrafficSpec,
            batch_size: int = 64,
            batch_count: int = 200,
            branch_profile=None,
            cpu_time_inflation: float = 1.0,
            co_run_pressure_bytes: float = 0.0,
            gpu_corun_kernels: int = 0,
            recorder=None, trace=None,
            faults=None, overload=None) -> ThroughputLatencyReport:
        """Simulate ``batch_count`` batches of ``batch_size`` packets
        (both at least 1).

        ``cpu_time_inflation``, ``co_run_pressure_bytes`` and
        ``gpu_corun_kernels`` inject co-existence interference computed
        by :class:`~repro.hw.interference.InterferenceModel`.  An
        optional :class:`~repro.sim.tracing.EventRecorder` captures
        per-node scheduling events for debugging and visualization.
        A :class:`~repro.obs.Trace` records the whole run as one
        ``simulate`` span (the hot loop itself is never instrumented).

        ``faults`` is an optional
        :class:`~repro.faults.FaultTimeline` over the run's simulated
        clock: offload legs whose execution window intersects a crash
        are re-queued to the host core (with the timeline's
        ``requeue_penalty``), degraded links stretch DMA slot
        durations, and slowdown windows stretch kernel time.  With no
        timeline (or an empty one) the fault path is never entered and
        the schedule is bit-identical to a fault-free run.

        ``overload`` is an optional
        :class:`~repro.overload.OverloadConfig`: a bounded
        ``queue_limit`` drops overflowing batches by its drop policy,
        an admission controller sheds batches at arrival, and a
        circuit breaker / retry policy wraps every offload-leg
        dispatch, starting from the config's ``state``.  A no-op
        config (all knobs ``None``) is normalized to
        ``overload=None``, keeping the unprotected path bit-identical
        to the historical kernel.
        """
        check_batches(batch_size=batch_size, batch_count=batch_count)
        if faults is not None and faults.is_empty:
            # An empty timeline takes the exact fault-free code path,
            # keeping the schedule bit-identical to faults=None.
            faults = None
        if overload is not None and overload.is_noop:
            # Same normalization as empty fault timelines: a config
            # that cannot alter the run takes the exact historical
            # code path (golden-parity suite).
            overload = None
        trace = resolve_trace(trace)
        with trace.span("simulate", deployment=self.deployment.name,
                        batch_size=batch_size,
                        batch_count=batch_count):
            report = self._run(spec, batch_size, batch_count,
                               branch_profile, cpu_time_inflation,
                               co_run_pressure_bytes, gpu_corun_kernels,
                               recorder, faults, overload)
        self.runs_completed += 1
        if self.runs_completed > 1:
            trace.count("session.cache_hits")
        ledger = report.ledger
        trace.count("sim.runs")
        trace.count("sim.batches", batch_count)
        trace.count("traffic.batches", batch_count)
        trace.gauge("traffic.peak_rate_gbps", ledger.peak_rate_gbps)
        if faults is not None:
            trace.count("fault.requeued_batches",
                        ledger.fault_crash.batches)
            trace.count("fault.degraded_transfers",
                        ledger.degraded_transfers)
            trace.count("fault.slowed_kernels", ledger.slowed_kernels)
        if overload is not None:
            trace.count("overload.drops", ledger.queue_dropped_batches)
            trace.count("overload.sheds", ledger.shed_batches)
            trace.count("breaker.trips", ledger.breaker_trips)
            trace.count("retry.attempts", ledger.retry_attempts)
        return report

    def _run(self, spec: TrafficSpec, batch_size: int, batch_count: int,
             branch_profile, cpu_time_inflation: float,
             co_run_pressure_bytes: float, gpu_corun_kernels: int,
             recorder, faults, overload) -> ThroughputLatencyReport:
        """One run with normalized ``faults`` and ``overload``."""
        if branch_profile is None:
            from repro.sim.engine import BranchProfile
            branch_profile = BranchProfile()
        state: Optional[_OverloadState] = None
        if overload is not None:
            tally = _Tally(overload.state)
            timeline = ResourceTimeline(queue_limit=overload.queue_limit)
            # The ingress queue is the first source node's host core;
            # batch-level admission and drop decisions are made there.
            ingress = self.plans[self.source_nodes[0]].host_resource
            state = _OverloadState(
                overload, ingress,
                batch_size * spec.mean_packet_interval(), tally)
        else:
            tally = _Tally(ControllerState())
            timeline = ResourceTimeline()
        overheads = OverheadBreakdown()
        mean_bytes = spec.size_law.mean()
        if faults is not None:
            requeue_penalty = faults.requeue_penalty
        else:
            # A breaker can stay open into a run without a fault
            # timeline; its re-queues pay the default penalty.
            from repro.faults.spec import DEFAULT_REQUEUE_PENALTY
            requeue_penalty = DEFAULT_REQUEUE_PENALTY
        prices = _PriceTable(self.cost, spec, mean_bytes,
                             cpu_time_inflation, co_run_pressure_bytes,
                             gpu_corun_kernels,
                             self.deployment.persistent_kernel,
                             requeue_penalty)
        program = _BatchProgram(self, branch_profile, prices, timeline,
                                batch_size, mean_bytes,
                                bounded=state is not None
                                and state.queue_limit is not None)
        # The arrival clock is pluggable (repro.traffic.arrivals); the
        # default ConstantRate reproduces the historical uniform
        # spacing bit-for-bit (golden parity suite).
        process = spec.arrival_process
        arrival_times = process.batch_arrivals(batch_count, batch_size,
                                               spec)
        horizon = process.horizon(arrival_times, batch_size, spec)

        delivered_packets = 0.0
        delivered_bytes = 0.0
        dropped_packets = 0.0
        latencies: List[float] = []
        last_completion = 0.0
        batch_packets = float(batch_size) * len(self.source_nodes)
        offered_packets = batch_packets * batch_count

        for batch_index in range(batch_count):
            arrival = arrival_times[batch_index]
            if state is not None:
                verdict, inherited = state.ingress(arrival, batch_packets,
                                                   timeline)
                if verdict == "swap":
                    # Head-drop: the newcomer takes over the sacrificed
                    # batch's committed service slot — it inherits the
                    # completion and deliverables without scheduling
                    # any new busy time; the old batch's delivery is
                    # withdrawn at settlement.
                    completion = inherited.completion
                    delivered = inherited.delivered
                    if recorder is not None:
                        recorder.record_batch(batch_index, arrival,
                                              completion, delivered)
                    if delivered > _EPSILON_PACKETS:
                        delivered_packets += delivered
                        delivered_bytes += inherited.bytes
                        latencies.append(completion - arrival)
                        last_completion = max(last_completion,
                                              completion)
                        state.note_swapped(arrival, inherited,
                                           len(latencies) - 1)
                    # The newcomer's own NF-dropped share mirrors the
                    # batch it replaced (all batches are identical in
                    # the analytic model).
                    dropped_packets += batch_packets - delivered
                    continue
                if verdict is not None:
                    # Shed or dropped at ingress: the batch never
                    # enters the pipeline (no busy time, no events).
                    if recorder is not None:
                        recorder.record_batch(batch_index, arrival,
                                              arrival, 0.0)
                    continue
            steps = program.steps
            batch_delivered = program.delivered
            batch_completion = arrival
            done = [arrival]
            cut = frozenset()
            # Walk the program.  A node that drops the batch ends the
            # pass over ``steps`` early (``break``); the walk then goes
            # on through the steps below it, re-derived for the cut.
            while True:
                for step in steps:
                    inputs = step.inputs
                    ready = (done[inputs[0]] if len(inputs) == 1
                             else max(map(done.__getitem__, inputs)))
                    if (step.bounded
                            and step.host_lane.would_overflow(ready)):
                        # Interior bounded queue overflowed: the batch
                        # is dropped here tail-wise whatever the
                        # ingress policy (there is no per-resource
                        # arrival order to re-sequence mid-pipeline).
                        state.note_queue_drop(step.plan.host_resource,
                                              step.packets)
                        break
                    merge = step.merge
                    if merge is not None:
                        _start, ready = step.host_lane.schedule(ready, merge)
                        overheads.batch_merge += merge
                    completion = ready
                    host = step.host
                    if host is not None:
                        _start, completion = step.host_lane.schedule(ready,
                                                                     host)
                        overheads.cpu_compute += host
                    for leg in step.legs:
                        leg_end = self._offload_step(
                            step, leg, ready, overheads, faults, state,
                            tally, recorder, batch_index)
                        if leg_end > completion:
                            completion = leg_end
                    partial_merge = step.partial_merge
                    if partial_merge is not None:
                        _start, completion = step.host_lane.schedule(
                            completion, partial_merge)
                        overheads.batch_merge += partial_merge
                    reassembly = step.reassembly
                    if reassembly is not None:
                        _start, completion = step.host_lane.schedule(
                            completion, reassembly)
                        overheads.reassembly += reassembly
                    if recorder is not None:
                        recorder.record_node(batch_index, step.plan.node_id,
                                             ready, completion, step.packets)
                    dropped_packets += step.dropped
                    if step.delivers and completion > batch_completion:
                        batch_completion = completion
                    split = step.split
                    if split is not None:
                        _start, completion = step.host_lane.schedule(
                            completion, split)
                        overheads.batch_split += split
                    duplicate = step.duplicate
                    if duplicate is not None:
                        _start, completion = step.host_lane.schedule(
                            completion, duplicate)
                        overheads.duplication += duplicate
                    done.append(completion)
                else:
                    break
                cut = cut | {step.plan.node_id}
                done.append(None)
                steps, batch_delivered = program.below(cut, len(done) - 1)

            if recorder is not None:
                recorder.record_batch(batch_index, arrival,
                                      batch_completion, batch_delivered)
            if batch_delivered > _EPSILON_PACKETS:
                delivered_packets += batch_delivered
                delivered_bytes += batch_delivered * mean_bytes
                latencies.append(batch_completion - arrival)
                last_completion = max(last_completion, batch_completion)
                if state is not None:
                    state.note_delivered(arrival, batch_completion,
                                         batch_delivered,
                                         batch_delivered * mean_bytes,
                                         len(latencies) - 1)

        shed_packets = 0.0
        slo_delivered_bytes = 0.0
        queue_drops: Dict[str, float] = {}
        if state is not None:
            # Settle head-drop cancellations: the sacrificed batches'
            # deliveries are withdrawn (their busy time is sunk) and
            # their packets become ingress queue drops.
            for entry in state.cancelled:
                delivered_packets -= entry.delivered
                delivered_bytes -= entry.bytes
                state.slo_delivered -= entry.slo_bytes
                latencies[entry.latency_index] = None
                state.note_queue_drop(state.ingress_resource,
                                      entry.delivered)
            if state.cancelled:
                latencies = [s for s in latencies if s is not None]
            queue_drops = state.queue_drops
            shed_packets = state.shed_packets
            dropped_packets += shed_packets \
                + sum(queue_drops.values())
            slo_delivered_bytes = state.slo_delivered
            breakers = state.breakers
            if breakers is not None:
                tally.breaker_trips = breakers.trips
                tally.state = dataclasses.replace(
                    tally.state, breakers=breakers.entries())

        makespan = max(last_completion, horizon)
        self.last_timeline = timeline
        return ThroughputLatencyReport(
            name=self.deployment.name,
            offered_gbps=spec.offered_gbps,
            delivered_packets=delivered_packets,
            delivered_bytes=delivered_bytes,
            dropped_packets=dropped_packets,
            makespan_seconds=makespan,
            latency=LatencyStats.from_samples(latencies),
            overheads=overheads,
            processor_busy_seconds=dict(timeline.busy),
            processor_queue_wait_seconds=dict(timeline.queue_wait),
            latency_samples=sorted(latencies),
            max_queue_depth=timeline.max_queue_depths(),
            offered_packets=offered_packets,
            shed_packets=shed_packets,
            drops=dict(queue_drops),
            slo_ms=None if overload is None else overload.slo_ms,
            slo_delivered_bytes=slo_delivered_bytes,
            ledger=tally.freeze(peak_rate_gbps(arrival_times, batch_size,
                                               spec)),
        )

    # ------------------------------------------------------------------
    # Offload dispatch
    # ------------------------------------------------------------------
    def _offload_step(self, step: _Step, leg: _StepLeg, ready: float,
                      overheads: OverheadBreakdown,
                      faults, state: Optional[_OverloadState],
                      tally: _Tally, recorder, batch_index: int) -> float:
        """Dispatch one batch share to an offload leg of ``step``.

        A dispatch fails when its estimated window (H2D, launch,
        kernel, D2H, queueing ignored) intersects a crash, or when a
        retry policy is set and the link is stretched by its
        ``timeout_stretch`` or more.  Deciding before any slot is
        committed keeps the decision deterministic: peeking the
        timeline would entangle faults with resource occupancy and
        break batch-order independence.  A guarded dispatch (a breaker
        or a retry policy is set) pays the full window as the timeout,
        the breaker records the failure, and the batch retries after a
        bounded exponential backoff until the budget runs out; an open
        breaker skips the device and the timeout.  An unguarded one
        has no breaker and a zero budget and sees a failure at
        submission.  A batch not dispatched re-queues to the host
        core; a dispatched one pays the link stretch and slowdown in
        force at its dispatch time.  Every duration comes priced on
        ``leg``; only these clock-dependent decisions are made here.
        """
        device_id = leg.leg.device_id
        h2d = leg.h2d
        d2h = leg.d2h
        kernel_service = leg.kernel
        breaker = retry = None
        if state is not None:
            breaker, retry = state.breakers, state.retry
        guarded = breaker is not None or retry is not None
        clock = ready
        if faults is not None or guarded:
            window = leg.window
            budget = retry.budget if retry is not None else 0
            attempt = 0
            cause = None
            while True:
                if (breaker is not None
                        and not breaker.allow(device_id, clock)):
                    cause = "breaker_open"
                    break
                failed = faults is not None and (
                    faults.crashed_during(device_id, clock,
                                          clock + window)
                    or (retry is not None and (h2d > 0 or d2h > 0)
                        and faults.link_stretch(device_id, clock)
                        >= retry.timeout_stretch))
                if not failed:
                    break
                if guarded:
                    clock += window  # the timeout is paid in full
                if breaker is not None:
                    breaker.record_failure(device_id, clock, window)
                if attempt >= budget:
                    cause = ("fault_crash" if retry is None
                             else "retry_exhausted")
                    break
                tally.retry_attempts += 1
                clock += retry.backoff_seconds(attempt, window)
                attempt += 1
            if cause is not None:
                completion = self._requeue_step(
                    step, clock, leg, overheads, tally.requeues[cause],
                )
                if recorder is not None:
                    recorder.record_requeue(batch_index, step.plan.node_id,
                                            device_id, cause, clock,
                                            leg.packets)
                return completion
            if breaker is not None:
                breaker.record_success(device_id)
            if faults is not None:
                stretch = faults.link_stretch(device_id, clock)
                if stretch > 1.0 and (h2d > 0 or d2h > 0):
                    h2d *= stretch
                    d2h *= stretch
                    tally.degraded_transfers += 1
                slow = faults.slowdown(device_id, clock)
                if slow > 1.0:
                    kernel_service *= slow
                    tally.slowed_kernels += 1
        if h2d > 0:
            _start, clock = leg.h2d_lane.schedule(clock, h2d)
            overheads.pcie_transfer += h2d

        kernel_time = leg.launch + kernel_service
        _start, clock = leg.device_lane.schedule(clock, kernel_time)
        overheads.kernel_launch += leg.launch
        overheads.gpu_kernel += kernel_service

        if d2h > 0:
            _start, clock = leg.d2h_lane.schedule(clock, d2h)
            overheads.pcie_transfer += d2h
        return clock

    @staticmethod
    def _requeue_step(step: _Step, ready: float, leg: _StepLeg,
                      overheads: OverheadBreakdown,
                      counts: list) -> float:
        """Service a bypassed leg's batch share on ``step``'s host core.

        The re-queued batch pays the host service time scaled by the
        timeline's ``requeue_penalty`` (re-submission, cold caches, no
        device batching) and never touches the crashed device or its
        DMA lanes — a device crashed for a whole run therefore shows
        zero busy time.  ``counts`` is the cause's ``[batches,
        packets, host seconds]`` tally.
        """
        service = leg.requeue
        _start, completion = step.host_lane.schedule(ready, service)
        overheads.cpu_compute += service
        counts[0] += 1
        counts[1] += leg.packets
        counts[2] += service
        return completion

    # ------------------------------------------------------------------
    def measure_capacity(self, spec: TrafficSpec,
                         batch_size: int = 64,
                         batch_count: int = 200,
                         branch_profile=None,
                         trace=None) -> float:
        """Saturation throughput in Gbps (offered load >> capacity).

        The probe offers :data:`SATURATING_GBPS`, or the spec's own
        load where that is higher.  Every other spec field — the
        arrival process included — is preserved, so bursty specs are
        saturated under the same burst structure (re-normalized to the
        saturating mean rate).
        """
        trace = resolve_trace(trace)
        saturated = dataclasses.replace(
            spec, offered_gbps=max(spec.offered_gbps, SATURATING_GBPS)
        )
        with trace.span("capacity", deployment=self.deployment.name,
                        saturation_gbps=saturated.offered_gbps) as span:
            report = self.run(saturated, batch_size=batch_size,
                              batch_count=batch_count,
                              branch_profile=branch_profile,
                              trace=trace)
            span.set(capacity_gbps=report.throughput_gbps)
        return report.throughput_gbps
