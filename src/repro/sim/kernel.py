"""The event kernel: resource timelines and reusable simulation sessions.

This module is the scheduling core of the batch-level simulator.  It
splits the old monolithic engine loop into two long-lived objects:

- :class:`ResourceTimeline` — serially reusable resources (CPU cores,
  GPUs, PCIe DMA lanes) with gap-filling FCFS scheduling.  Busy time
  is kept per resource as sorted slots in index blocks of B slots,
  each with an upper bound on the idle gaps inside it.  A placement
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
  every placement bit-identical to the legacy linear scanner (see
  ``repro.sim.legacy`` and the Hypothesis differential property in
  ``tests/properties/test_timeline_properties.py``).

- :class:`SimulationSession` — per-deployment invariants computed
  once and reused across every ``run``/``measure_capacity`` call:
  topological order, source/sink sets, per-node placement/element
  lookups, per-device offload legs (shares, resolved
  :class:`~repro.hw.device.DeviceSpec`, link-derived DMA resource
  names), fan-out edge tables, and the device boundary-crossing flags
  (whether a node pays H2D/D2H, formerly re-derived per batch by
  graph walks).

The per-node work of one batch is decomposed into small step methods
(merge, service, split/duplicate, fan-out) operating on the session,
keeping the :class:`~repro.sim.tracing.EventRecorder` hooks and the
:class:`~repro.sim.metrics.OverheadBreakdown` accounting of the
original loop intact.  Each run prices every distinct service (node,
device or host, rounded packet count, re-queue or not) once, in a
per-run table; see :class:`_PriceTable`.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right, insort
from collections import deque
from itertools import chain
from operator import sub
from typing import Dict, List, Optional, Tuple

from repro.elements.offload import OffloadableElement
from repro.hw.costs import BatchStats
from repro.obs import resolve_trace
from repro.sim.mapping import Deployment, Placement
from repro.sim.metrics import (
    LatencyStats,
    OverheadBreakdown,
    ThroughputLatencyReport,
)
from repro.traffic.arrivals import peak_rate_gbps
from repro.traffic.generator import TrafficSpec

#: Tokens smaller than this many packets are considered empty.
_EPSILON_PACKETS = 1e-9


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


def _walk(starts: List[float], ends: List[float], index: int,
          start: float, duration: float) -> Tuple[int, float]:
    """The legacy linear scan over one block, from slot ``index``.

    Returns the first slot the task fits in front of (``len(starts)``
    when none does) and the start time carried to it.
    """
    count = len(starts)
    while index < count:
        if starts[index] >= start + duration:
            break
        if ends[index] > start:
            start = ends[index]
        index += 1
    return index, start


class _Lane:
    """One resource's committed busy slots, in sorted index blocks.

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
    """

    __slots__ = ("starts", "ends", "last_ends", "gaps")

    def __init__(self):
        self.starts: List[List[float]] = []
        self.ends: List[List[float]] = []
        self.last_ends: List[float] = []
        self.gaps: List[float] = []

    def place(self, ready: float, duration: float) -> Tuple[float, float]:
        """Commit the earliest fitting slot at or after ``ready``."""
        last_ends = self.last_ends
        # Tail fast path: work arriving after all committed slots.
        if not last_ends or ready >= last_ends[-1]:
            end = ready + duration
            if duration > 0:
                self._append(ready, end)
            return ready, end
        # The block holding the first slot that ends after the ready
        # time; earlier slots cannot constrain the placement.
        block = bisect_right(last_ends, ready)
        starts = self.starts[block]
        ends = self.ends[block]
        index, start = _walk(starts, ends, bisect_right(ends, ready),
                             ready, duration)
        if index < len(starts):
            return self._insert(block, index, start, duration)
        # Every later block is entered at the previous block's last
        # end.  A block whose gap bound cannot fit the duration is
        # skipped: the walk would only carry ``start`` to its last end.
        gaps = self.gaps
        floor = duration - (last_ends[-1] + duration) * _GAP_SLACK
        for block in range(block + 1, len(last_ends)):
            if gaps[block] < floor:
                continue
            starts = self.starts[block]
            ends = self.ends[block]
            entry = last_ends[block - 1]
            index, start = _walk(starts, ends, 0, entry, duration)
            if index < len(starts):
                return self._insert(block, index, start, duration)
            gaps[block] = max(map(sub, starts, chain((entry,), ends)))
        start = last_ends[-1]
        end = start + duration
        if duration > 0:
            self._append(start, end)
        return start, end

    def _append(self, start: float, end: float) -> None:
        """Commit a slot after every committed slot."""
        last_ends = self.last_ends
        if not last_ends:
            self.starts.append([start])
            self.ends.append([end])
            last_ends.append(end)
            self.gaps.append(0.0)
            return
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

    def _insert(self, block: int, index: int, start: float,
                duration: float) -> Tuple[float, float]:
        """Commit a slot in front of slot ``index`` of ``block``."""
        end = start + duration
        if duration > 0:
            starts = self.starts[block]
            if block == 0 and index == 0:
                # The first slot had no gap in front of it; now it has.
                gap = starts[0] - end
                if gap > self.gaps[0]:
                    self.gaps[0] = gap
            starts.insert(index, start)
            self.ends[block].insert(index, end)
            if len(starts) >= 2 * _BLOCK:
                self._split(block)
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


class ResourceTimeline:
    """Serially reusable resources with gap-filling scheduling.

    Each resource keeps its committed busy intervals; a new task is
    placed in the earliest gap (at or after its ready time) that fits.
    Without gap filling, the batch-major simulation order would create
    a head-of-line artifact: batch *i+1*'s first element could never
    use the idle time a core has while batch *i* is away on the GPU,
    and every pipeline would serialize at its round-trip time instead
    of its bottleneck stage.

    Besides the busy-time totals the legacy scheduler kept, the
    timeline accumulates per-resource queueing delay (``start -
    ready`` per task) and task counts, which feed the bottleneck
    fields of :class:`~repro.sim.metrics.ThroughputLatencyReport`.

    An optional ``queue_limit`` bounds how many tasks may be *waiting*
    (ready but not started) on one resource at once.  The timeline
    itself never rejects work — scheduling semantics and placements
    are byte-identical whatever the limit — it only answers
    :meth:`would_overflow` so the simulation loop can apply its drop
    policy before committing a batch.  With ``queue_limit=None``
    (default) the occupancy index is never built and the schedule path
    is unchanged.
    """

    __slots__ = ("_lanes", "busy", "queue_wait", "task_counts", "_waits",
                 "queue_limit", "_pending_ready", "_pending_start")

    def __init__(self, queue_limit: Optional[int] = None):
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.queue_limit = queue_limit
        self._lanes: Dict[str, _Lane] = {}
        self.busy: Dict[str, float] = {}
        self.queue_wait: Dict[str, float] = {}
        self.task_counts: Dict[str, int] = {}
        # Per-resource (ready, start) spans of tasks that had to wait;
        # zero-wait tasks are not recorded, so the common uncongested
        # path stays allocation-free.
        self._waits: Dict[str, List[Tuple[float, float]]] = {}
        # Sorted wait-span endpoints for queue_limit occupancy
        # queries: a task waits over the half-open span
        # [ready, start), so the depth at t is
        # count(ready <= t) - count(start <= t) — two bisects instead
        # of a scan, which matters because under sustained overload
        # the live backlog grows with the run.  Kept separate from
        # _waits, whose full history feeds max_queue_depths.
        self._pending_ready: Dict[str, List[float]] = {}
        self._pending_start: Dict[str, List[float]] = {}

    def schedule(self, resource: str, ready: float,
                 duration: float) -> Tuple[float, float]:
        """Occupy ``resource`` for ``duration``; returns (start, end)."""
        if duration < 0:
            raise ValueError("duration must be non-negative")
        lane = self._lanes.get(resource)
        if lane is None:
            lane = self._lanes[resource] = _Lane()
        start, end = lane.place(ready, duration)
        self.busy[resource] = self.busy.get(resource, 0.0) + duration
        self.queue_wait[resource] = (
            self.queue_wait.get(resource, 0.0) + (start - ready)
        )
        self.task_counts[resource] = self.task_counts.get(resource, 0) + 1
        if start > ready:
            self._waits.setdefault(resource, []).append((ready, start))
            if self.queue_limit is not None:
                insort(self._pending_ready.setdefault(resource, []),
                       ready)
                insort(self._pending_start.setdefault(resource, []),
                       start)
        return start, end

    def waiting_depth(self, resource: str, t: float) -> int:
        """Tasks waiting (ready but not started) on ``resource`` at
        ``t``.  Only meaningful with a ``queue_limit`` (the occupancy
        index is not maintained otherwise)."""
        readies = self._pending_ready.get(resource)
        if not readies:
            return 0
        starts = self._pending_start[resource]
        return bisect_right(readies, t) - bisect_right(starts, t)

    def would_overflow(self, resource: str, t: float) -> bool:
        """True when admitting one more waiter at ``t`` would exceed
        the ``queue_limit``."""
        return (self.queue_limit is not None
                and self.waiting_depth(resource, t) >= self.queue_limit)

    def max_queue_depths(self) -> Dict[str, int]:
        """Peak number of simultaneously waiting tasks per resource.

        A task waits over ``[ready, start)``; the depth of a resource
        at time *t* is how many such half-open spans cover *t*.
        Computed by a sweep over span endpoints (ends sort before
        starts at ties, so back-to-back waits do not overlap).
        Resources that never queued are omitted.
        """
        depths: Dict[str, int] = {}
        for resource, spans in self._waits.items():
            events = []
            for ready, start in spans:
                events.append((ready, 1))
                events.append((start, -1))
            events.sort()
            depth = 0
            peak = 0
            for _time, delta in events:
                depth += delta
                if depth > peak:
                    peak = depth
            depths[resource] = peak
        return depths

    def resources(self) -> List[str]:
        return sorted(self._lanes)

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


class _Token:
    """A (possibly fractional) batch present at one node."""

    __slots__ = ("ready", "packets")

    def __init__(self, ready: float, packets: float):
        self.ready = ready
        self.packets = packets


class _InFlight:
    """One admitted batch's deliverables, kept until it completes.

    Head-drop sacrifices the oldest of these: its delivery is
    cancelled at settlement (packets move to dropped, the latency
    sample at ``latency_index`` is withdrawn).  The busy time it
    committed is sunk — the schedule is never retracted.
    """

    __slots__ = ("batch_index", "completion", "delivered", "bytes",
                 "slo_bytes", "latency_index")

    def __init__(self, batch_index: int, completion: float,
                 delivered: float, nbytes: float, slo_bytes: float,
                 latency_index: int):
        self.batch_index = batch_index
        self.completion = completion
        self.delivered = delivered
        self.bytes = nbytes
        self.slo_bytes = slo_bytes
        self.latency_index = latency_index


class _OverloadState:
    """Per-run overload bookkeeping (one instance per ``_run`` call).

    Holds the run-scoped ledgers (sheds, per-resource queue drops,
    head-drop cancellations, retry/breaker counts) plus the live
    in-flight window and the smoothed span estimate deadline-drop
    projects completions with.  The admission controller, breaker and
    retry policy objects live on the :class:`OverloadConfig` and are
    deliberately *not* reset here — they carry state across epochs.
    """

    #: EWMA weight of the newest per-batch span sample.
    _SPAN_ALPHA = 0.3

    __slots__ = (
        "config", "admission", "breaker", "retry", "queue_limit",
        "policy", "deadline_seconds", "ingress_resource", "queue_drops",
        "queue_dropped_batches", "shed_batches", "shed_packets",
        "head_cancelled", "retry_attempts", "breaker_open_requeues",
        "retry_exhausted_requeues", "slo_delivered", "inflight",
        "cancelled", "ewma_span", "max_completion", "trips_before",
    )

    def __init__(self, config, ingress_resource: str):
        self.config = config
        self.admission = config.admission
        self.breaker = config.breaker
        self.retry = config.retry
        self.queue_limit = config.queue_limit
        self.policy = config.drop_policy
        self.deadline_seconds = config.deadline_seconds
        self.ingress_resource = ingress_resource
        self.queue_drops: Dict[str, float] = {}
        self.queue_dropped_batches = 0
        self.shed_batches = 0
        self.shed_packets = 0.0
        self.head_cancelled = 0
        self.retry_attempts = 0
        self.breaker_open_requeues = 0
        self.retry_exhausted_requeues = 0
        self.slo_delivered = 0.0
        self.inflight: "deque[_InFlight]" = deque()
        self.cancelled: List[_InFlight] = []
        self.ewma_span: Optional[float] = None
        self.max_completion = 0.0
        self.trips_before = (config.breaker.trips
                             if config.breaker is not None else 0)

    def note_queue_drop(self, resource: str, packets: float,
                        events: int = 1) -> None:
        self.queue_drops[resource] = (
            self.queue_drops.get(resource, 0.0) + packets
        )
        self.queue_dropped_batches += events

    def ingress(self, batch_index: int, arrival: float, packets: float,
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
        if (self.admission is not None
                and not self.admission.admit(batch_index, arrival,
                                             packets)):
            self.shed_batches += 1
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
                self.head_cancelled += 1
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

    def note_swapped(self, batch_index: int, arrival: float,
                     inherited: _InFlight, latency_index: int,
                     slo_seconds: Optional[float]) -> None:
        """Track a head-drop newcomer that took over ``inherited``'s
        service slot: same completion and deliverables, fresher
        arrival (so a shorter latency and its own SLO verdict)."""
        slo_bytes = inherited.bytes
        if (slo_seconds is not None
                and inherited.completion - arrival > slo_seconds):
            slo_bytes = 0.0
        self.slo_delivered += slo_bytes
        self.inflight.append(_InFlight(batch_index,
                                       inherited.completion,
                                       inherited.delivered,
                                       inherited.bytes, slo_bytes,
                                       latency_index))

    def note_delivered(self, batch_index: int, arrival: float,
                       completion: float, delivered: float,
                       nbytes: float, latency_index: int,
                       slo_seconds: Optional[float]) -> None:
        """Track one delivered batch for SLO goodput and head/deadline
        policy state."""
        slo_bytes = nbytes
        if (slo_seconds is not None
                and completion - arrival > slo_seconds):
            slo_bytes = 0.0
        self.slo_delivered += slo_bytes
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
        self.inflight.append(_InFlight(batch_index, completion,
                                       delivered, nbytes, slo_bytes,
                                       latency_index))


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
    :class:`~repro.hw.costs.BatchStats` is built.  Fault stretch and
    slowdown depend on the simulated clock: callers multiply them onto
    the looked-up value and never store the product.  A table serves
    one run only; sessions are reused with other specs and
    interference.
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
        "host_share", "host_resource", "merge_resource", "offloads",
        "needs_partial_merge", "edges_by_port",
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
        self.host_resource = placement.host
        self.merge_resource = placement.host
        # Service is split across (host + offload legs); rejoining the
        # parts costs a merge (the GPUCompletionQueue pattern).
        parts = len(offloads) + (1 if self.host_share > 0.0 else 0)
        self.needs_partial_merge = parts > 1
        self.edges_by_port = edges_by_port


def _crosses_into_device(deployment: Deployment, node_id: str,
                         device_id: str) -> bool:
    """H2D needed unless all input already lives on the same device."""
    placement = deployment.mapping[node_id]
    if placement.share_of(device_id) < 1.0:
        return True
    graph = deployment.graph
    predecessors = graph.predecessors(node_id)
    if not predecessors:
        return True
    for pred in predecessors:
        pred_placement = deployment.mapping.get(pred)
        if (pred_placement is None
                or pred_placement.share_of(device_id) < 1.0):
            return True
    return False


def _crosses_out_of_device(deployment: Deployment, node_id: str,
                           device_id: str) -> bool:
    """D2H needed unless every consumer stays on the same device."""
    placement = deployment.mapping[node_id]
    if placement.share_of(device_id) < 1.0:
        return True
    graph = deployment.graph
    successors = graph.successors(node_id)
    if not successors:
        return True
    for succ in successors:
        succ_placement = deployment.mapping.get(succ)
        if (succ_placement is None
                or succ_placement.share_of(device_id) < 1.0):
            return True
    return False


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
                        pays_h2d=_crosses_into_device(
                            deployment, node_id, device_id),
                        pays_d2h=_crosses_out_of_device(
                            deployment, node_id, device_id),
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
        #: Fault accounting of the most recent :meth:`run`: ``None``
        #: when the run had no (or an empty) fault timeline, else a
        #: dict with ``requeued_batches``/``requeued_packets``/
        #: ``requeue_seconds``/``degraded_transfers``/
        #: ``slowed_kernels``.
        self.last_fault_stats: Optional[Dict[str, float]] = None
        #: Arrival accounting of the most recent :meth:`run`:
        #: ``batches`` and the schedule's ``peak_rate_gbps`` (the
        #: offered burst peak, not the delivered throughput).
        self.last_traffic_stats: Optional[Dict[str, float]] = None
        #: Overload accounting of the most recent :meth:`run`:
        #: ``None`` when the run had no (or a no-op) overload config,
        #: else a dict with ``shed_batches``/``shed_packets``/
        #: ``queue_dropped_batches``/``queue_dropped_packets``/
        #: ``head_cancelled``/``breaker_trips``/``retry_attempts``/
        #: ``breaker_open_requeues``/``retry_exhausted_requeues``.
        self.last_overload_stats: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    def _branch_tables(self, profile):
        """Per-run branch invariants: drop fractions and fan-out plans.

        The measured profile and the graph are immutable over one run,
        so the per-node port fractions are computed once here instead
        of once per (batch, node) visit.
        """
        graph = self.deployment.graph
        drops: Dict[str, float] = {}
        fan_out: Dict[str, Tuple[Dict[int, float], int]] = {}
        for node_id in self.order:
            drops[node_id] = profile.drop_for(node_id)
            if node_id not in self.sink_nodes:
                fractions = profile.fractions_for(graph, node_id)
                connected = sum(1 for p in fractions if fractions[p] > 0)
                fan_out[node_id] = (fractions, connected)
        return drops, fan_out

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
        """Simulate ``batch_count`` batches of ``batch_size`` packets.

        ``cpu_time_inflation``, ``co_run_pressure_bytes`` and
        ``gpu_corun_kernels`` inject co-existence interference computed
        by :class:`~repro.hw.interference.InterferenceModel`.  An
        optional :class:`~repro.sim.tracing.EventRecorder` captures
        per-node scheduling events for debugging and visualization.
        A :class:`~repro.obs.Trace` records the whole run as one
        ``simulate`` span (the hot loop itself is never instrumented);
        when a recorder is also present its per-node activity is
        bridged into the trace as simulated-time child spans.

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
        dispatch.  A no-op config (all fields ``None``) is normalized
        to ``overload=None``, keeping the unprotected path
        bit-identical to the historical kernel.
        """
        trace = resolve_trace(trace)
        with trace.span("simulate", deployment=self.deployment.name,
                        batch_size=batch_size,
                        batch_count=batch_count) as sim_span:
            report = self._run(spec, batch_size, batch_count,
                               branch_profile, cpu_time_inflation,
                               co_run_pressure_bytes, gpu_corun_kernels,
                               recorder, faults, overload)
        self.runs_completed += 1
        if self.runs_completed > 1:
            trace.count("session.cache_hits")
        trace.count("sim.runs")
        trace.count("sim.batches", batch_count)
        traffic_stats = self.last_traffic_stats
        if traffic_stats is not None:
            trace.count("traffic.batches", traffic_stats["batches"])
            trace.gauge("traffic.peak_rate_gbps",
                        traffic_stats["peak_rate_gbps"])
        stats = self.last_fault_stats
        if stats is not None:
            trace.count("fault.requeued_batches",
                        stats["requeued_batches"])
            trace.count("fault.degraded_transfers",
                        stats["degraded_transfers"])
            trace.count("fault.slowed_kernels",
                        stats["slowed_kernels"])
        ostats = self.last_overload_stats
        if ostats is not None:
            trace.count("overload.drops",
                        ostats["queue_dropped_batches"])
            trace.count("overload.sheds", ostats["shed_batches"])
            trace.count("breaker.trips", ostats["breaker_trips"])
            trace.count("retry.attempts", ostats["retry_attempts"])
        if recorder is not None and trace.enabled:
            self._bridge_recorder(trace, recorder, sim_span.span_id)
        return report

    def _run(self, spec: TrafficSpec, batch_size: int, batch_count: int,
             branch_profile, cpu_time_inflation: float,
             co_run_pressure_bytes: float, gpu_corun_kernels: int,
             recorder, faults=None,
             overload=None) -> ThroughputLatencyReport:
        if branch_profile is None:
            from repro.sim.engine import BranchProfile
            branch_profile = BranchProfile()
        if faults is not None and faults.is_empty:
            # An empty timeline takes the exact fault-free code path,
            # keeping the schedule bit-identical to faults=None.
            faults = None
        if overload is not None and overload.is_noop:
            # Same normalization as empty fault timelines: a config
            # that cannot alter the run takes the exact historical
            # code path (golden-parity suite).
            overload = None
        self.last_fault_stats = None if faults is None else {
            "requeued_batches": 0,
            "requeued_packets": 0.0,
            "requeue_seconds": 0.0,
            "degraded_transfers": 0,
            "slowed_kernels": 0,
        }
        self.last_overload_stats = None
        state: Optional[_OverloadState] = None
        slo_seconds: Optional[float] = None
        if overload is not None:
            timeline = ResourceTimeline(queue_limit=overload.queue_limit)
            # The ingress queue is the first source node's host core;
            # batch-level admission and drop decisions are made there.
            ingress = self.plans[self.source_nodes[0]].host_resource
            state = _OverloadState(overload, ingress)
            if overload.slo_ms is not None:
                slo_seconds = overload.slo_ms * 1e-3
            if overload.admission is not None:
                overload.admission.start_run(
                    batch_size * spec.mean_packet_interval()
                )
        else:
            timeline = ResourceTimeline()
        overheads = OverheadBreakdown()
        drops, fan_out = self._branch_tables(branch_profile)
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
        # The arrival clock is pluggable (repro.traffic.arrivals); the
        # default ConstantRate reproduces the historical uniform
        # spacing bit-for-bit (golden parity suite).
        process = spec.arrival_process
        arrival_times = process.batch_arrivals(batch_count, batch_size,
                                               spec)
        horizon = process.horizon(batch_count, batch_size, spec)
        self.last_traffic_stats = {
            "batches": float(batch_count),
            "peak_rate_gbps": peak_rate_gbps(arrival_times, batch_size,
                                             spec),
        }

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
                verdict, inherited = state.ingress(batch_index, arrival,
                                                   batch_packets,
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
                        state.note_swapped(batch_index, arrival,
                                           inherited,
                                           len(latencies) - 1,
                                           slo_seconds)
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
            inbox: Dict[str, List[_Token]] = {n: [] for n in self.order}
            for node in self.source_nodes:
                inbox[node].append(_Token(ready=arrival,
                                          packets=float(batch_size)))
            batch_completion = arrival
            batch_delivered = 0.0
            for node_id in self.order:
                tokens = inbox[node_id]
                if not tokens:
                    continue
                ready = max(t.ready for t in tokens)
                packets = sum(t.packets for t in tokens)
                if packets <= _EPSILON_PACKETS:
                    continue
                plan = self.plans[node_id]
                if (state is not None and state.queue_limit is not None
                        and node_id not in self.source_set
                        and timeline.would_overflow(plan.host_resource,
                                                    ready)):
                    # Interior bounded queue overflowed: the token is
                    # dropped tail-wise whatever the ingress policy
                    # (there is no per-resource arrival order to
                    # re-sequence mid-pipeline).
                    state.note_queue_drop(plan.host_resource, packets)
                    continue
                if len(tokens) > 1:
                    ready = self._merge_step(plan, ready, packets,
                                             timeline, overheads)
                completion = self._service_step(
                    plan, ready, packets, prices, timeline, overheads,
                    faults, state, recorder, batch_index,
                )
                if recorder is not None:
                    recorder.record_node(batch_index, node_id, ready,
                                         completion, packets)

                survivors = packets * (1.0 - drops[node_id])
                dropped_packets += packets - survivors

                if plan.is_sink:
                    if survivors > _EPSILON_PACKETS:
                        batch_delivered += survivors
                        batch_completion = max(batch_completion, completion)
                    continue

                fractions, connected = fan_out[node_id]
                completion = self._split_step(plan, connected, survivors,
                                              mean_bytes, completion,
                                              timeline, overheads)
                self._fanout_step(plan, fractions, survivors, completion,
                                  inbox)

            if recorder is not None:
                recorder.record_batch(batch_index, arrival,
                                      batch_completion, batch_delivered)
            if batch_delivered > _EPSILON_PACKETS:
                delivered_packets += batch_delivered
                delivered_bytes += batch_delivered * mean_bytes
                latencies.append(batch_completion - arrival)
                last_completion = max(last_completion, batch_completion)
                if state is not None:
                    state.note_delivered(batch_index, arrival,
                                         batch_completion,
                                         batch_delivered,
                                         batch_delivered * mean_bytes,
                                         len(latencies) - 1,
                                         slo_seconds)

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
            breaker = state.breaker
            self.last_overload_stats = {
                "shed_batches": state.shed_batches,
                "shed_packets": state.shed_packets,
                "queue_dropped_batches": state.queue_dropped_batches,
                "queue_dropped_packets": sum(queue_drops.values()),
                "head_cancelled": state.head_cancelled,
                "breaker_trips": (breaker.trips - state.trips_before
                                  if breaker is not None else 0),
                "retry_attempts": state.retry_attempts,
                "breaker_open_requeues": state.breaker_open_requeues,
                "retry_exhausted_requeues":
                    state.retry_exhausted_requeues,
            }

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
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _bridge_recorder(trace, recorder, parent_id) -> None:
        """Bridge an EventRecorder into the trace as sim-clock spans.

        One aggregated child span per node (first ready time to last
        completion, simulated seconds) keeps the trace bounded even
        for long runs; the per-event detail stays on the recorder.
        """
        aggregates: Dict[str, List[float]] = {}
        for event in recorder.node_events:
            entry = aggregates.get(event.node_id)
            if entry is None:
                aggregates[event.node_id] = [event.ready,
                                             event.completion,
                                             event.span, 1.0]
            else:
                entry[0] = min(entry[0], event.ready)
                entry[1] = max(entry[1], event.completion)
                entry[2] += event.span
                entry[3] += 1.0
        for node_id in sorted(aggregates):
            first, last, busy, count = aggregates[node_id]
            trace.add_span(f"node:{node_id}", first, last,
                           parent_id=parent_id, events=int(count),
                           busy_sim_seconds=busy)

    # ------------------------------------------------------------------
    # Node-step functions
    # ------------------------------------------------------------------
    def _merge_step(self, plan: _NodePlan, ready: float, packets: float,
                    timeline: ResourceTimeline,
                    overheads: OverheadBreakdown) -> float:
        """Join-point merge cost for multi-input nodes."""
        merge_time = self.cost.merge_seconds(max(1, round(packets)))
        _start, ready = timeline.schedule(plan.merge_resource, ready,
                                          merge_time)
        overheads.batch_merge += merge_time
        return ready

    def _service_step(self, plan: _NodePlan, ready: float,
                      packets: float, prices: _PriceTable,
                      timeline: ResourceTimeline,
                      overheads: OverheadBreakdown,
                      faults=None, overload_state=None,
                      recorder=None, batch_index: int = 0) -> float:
        """Schedule one node's service; return its completion time."""
        host_packets = packets * plan.host_share

        completion = ready
        if host_packets > _EPSILON_PACKETS:
            service = prices.host(plan, host_packets)
            _start, completion = timeline.schedule(plan.host_resource,
                                                   ready, service)
            overheads.cpu_compute += service

        for leg in plan.offloads:
            leg_packets = packets * leg.share
            if leg_packets > _EPSILON_PACKETS:
                leg_end = self._offload_step(plan, leg, ready,
                                             leg_packets, prices,
                                             timeline, overheads, faults,
                                             overload_state, recorder,
                                             batch_index)
                completion = max(completion, leg_end)

        if plan.needs_partial_merge:
            # Split service re-merges the parts in order (the
            # GPUCompletionQueue pattern).
            merge_time = self.cost.merge_seconds(max(1, round(packets)))
            _start, completion = timeline.schedule(
                plan.merge_resource, completion, merge_time
            )
            overheads.batch_merge += merge_time

        if self.stateful_reassembly and plan.offloads:
            reasm = self.cost.reassembly_seconds(max(1, round(packets)))
            _start, completion = timeline.schedule(
                plan.merge_resource, completion, reasm
            )
            overheads.reassembly += reasm

        return completion

    def _offload_step(self, plan: _NodePlan, leg: _OffloadLeg,
                      ready: float, leg_packets: float,
                      prices: _PriceTable, timeline: ResourceTimeline,
                      overheads: OverheadBreakdown,
                      faults=None, overload_state=None,
                      recorder=None, batch_index: int = 0) -> float:
        timing = prices.device(plan, leg, leg_packets)
        h2d = timing.h2d if leg.pays_h2d else 0.0
        d2h = timing.d2h if leg.pays_d2h else 0.0
        kernel_service = timing.kernel
        if overload_state is not None and (
                overload_state.breaker is not None
                or overload_state.retry is not None):
            return self._dispatch_step(
                plan, leg, ready, leg_packets, prices, timeline,
                overheads, faults, overload_state, recorder, batch_index,
                h2d, d2h, timing,
            )
        if faults is not None:
            # Decide the batch's fate against the *estimated* execution
            # window.  The estimate ignores queueing (the real window
            # can start later), trading exactness for a deterministic
            # decision made before any slot is committed — peeking the
            # timeline would entangle fault decisions with resource
            # occupancy and break batch-order independence.
            window_end = ready + h2d + timing.launch + kernel_service \
                + d2h
            if faults.crashed_during(leg.device_id, ready, window_end):
                completion = self._requeue_step(
                    plan, ready, leg_packets, prices, timeline,
                    overheads,
                )
                if recorder is not None:
                    recorder.record_requeue(batch_index, plan.node_id,
                                            leg.device_id,
                                            "fault_crash", ready,
                                            leg_packets)
                return completion
            stretch = faults.link_stretch(leg.device_id, ready)
            if stretch > 1.0 and (h2d > 0 or d2h > 0):
                h2d *= stretch
                d2h *= stretch
                self.last_fault_stats["degraded_transfers"] += 1
            slow = faults.slowdown(leg.device_id, ready)
            if slow > 1.0:
                kernel_service *= slow
                self.last_fault_stats["slowed_kernels"] += 1
        clock = ready
        if h2d > 0:
            _start, clock = timeline.schedule(leg.h2d_resource, clock,
                                              h2d)
            overheads.pcie_transfer += h2d

        kernel_time = timing.launch + kernel_service
        _start, clock = timeline.schedule(leg.device_id, clock,
                                          kernel_time)
        overheads.kernel_launch += timing.launch
        overheads.gpu_kernel += kernel_service

        if d2h > 0:
            _start, clock = timeline.schedule(leg.d2h_resource, clock,
                                              d2h)
            overheads.pcie_transfer += d2h
        return clock

    def _dispatch_step(self, plan: _NodePlan, leg: _OffloadLeg,
                       ready: float, leg_packets: float,
                       prices: _PriceTable, timeline: ResourceTimeline,
                       overheads: OverheadBreakdown, faults,
                       state: _OverloadState, recorder,
                       batch_index: int, h2d: float, d2h: float,
                       timing) -> float:
        """Circuit-broken, retry-budgeted offload dispatch.

        Replaces the fire-and-requeue fault reaction when the overload
        config carries a breaker or a retry policy.  A dispatch whose
        estimated window intersects a crash (or whose link is degraded
        past the retry policy's ``timeout_stretch``) *fails*: the full
        window is paid as the timeout, the breaker records the
        failure, and the batch is re-dispatched after a bounded
        exponential backoff until the retry budget runs out — then it
        falls back to the host re-queue path.  An open breaker skips
        the device (and the timeout) entirely.
        """
        breaker = state.breaker
        retry = state.retry
        kernel_service = timing.kernel
        window = h2d + timing.launch + kernel_service + d2h
        budget = retry.budget if retry is not None else 0
        attempt = 0
        clock = ready
        while True:
            if (breaker is not None
                    and not breaker.allow(leg.device_id, clock)):
                state.breaker_open_requeues += 1
                completion = self._requeue_step(
                    plan, clock, leg_packets, prices, timeline,
                    overheads, cause="breaker_open",
                )
                if recorder is not None:
                    recorder.record_requeue(batch_index, plan.node_id,
                                            leg.device_id,
                                            "breaker_open", clock,
                                            leg_packets)
                return completion
            failed = False
            if faults is not None:
                if faults.crashed_during(leg.device_id, clock,
                                         clock + window):
                    failed = True
                elif (retry is not None
                        and (h2d > 0 or d2h > 0)
                        and faults.link_stretch(leg.device_id, clock)
                        >= retry.timeout_stretch):
                    failed = True
            if not failed:
                break
            observed = clock + window  # the timeout is paid in full
            if breaker is not None:
                breaker.record_failure(leg.device_id, observed, window)
            if attempt >= budget:
                cause = ("retry_exhausted" if retry is not None
                         else "fault_crash")
                if retry is not None:
                    state.retry_exhausted_requeues += 1
                completion = self._requeue_step(
                    plan, observed, leg_packets, prices, timeline,
                    overheads, cause=cause,
                )
                if recorder is not None:
                    recorder.record_requeue(batch_index, plan.node_id,
                                            leg.device_id, cause,
                                            observed, leg_packets)
                return completion
            state.retry_attempts += 1
            clock = observed + retry.backoff_seconds(attempt, window)
            attempt += 1
        if breaker is not None:
            breaker.record_success(leg.device_id)
        # Successful dispatch: the legacy degradation path, from the
        # (possibly backed-off) dispatch time.
        if faults is not None:
            stretch = faults.link_stretch(leg.device_id, clock)
            if stretch > 1.0 and (h2d > 0 or d2h > 0):
                h2d *= stretch
                d2h *= stretch
                self.last_fault_stats["degraded_transfers"] += 1
            slow = faults.slowdown(leg.device_id, clock)
            if slow > 1.0:
                kernel_service *= slow
                self.last_fault_stats["slowed_kernels"] += 1
        if h2d > 0:
            _start, clock = timeline.schedule(leg.h2d_resource, clock,
                                              h2d)
            overheads.pcie_transfer += h2d
        kernel_time = timing.launch + kernel_service
        _start, clock = timeline.schedule(leg.device_id, clock,
                                          kernel_time)
        overheads.kernel_launch += timing.launch
        overheads.gpu_kernel += kernel_service
        if d2h > 0:
            _start, clock = timeline.schedule(leg.d2h_resource, clock,
                                              d2h)
            overheads.pcie_transfer += d2h
        return clock

    def _requeue_step(self, plan: _NodePlan, ready: float,
                      leg_packets: float, prices: _PriceTable,
                      timeline: ResourceTimeline,
                      overheads: OverheadBreakdown,
                      cause: str = "fault_crash") -> float:
        """Service a bypassed leg's batch share on the host core.

        The re-queued batch pays the host service time scaled by the
        timeline's ``requeue_penalty`` (re-submission, cold caches, no
        device batching) and never touches the crashed device or its
        DMA lanes — a device crashed for a whole run therefore shows
        zero busy time.  ``cause`` attributes the re-queue: only
        ``fault_crash`` re-queues count into ``last_fault_stats``;
        breaker/retry causes are ledgered by the overload state.
        """
        service = prices.requeue(plan, leg_packets)
        _start, completion = timeline.schedule(plan.host_resource,
                                               ready, service)
        overheads.cpu_compute += service
        stats_dict = self.last_fault_stats
        if cause == "fault_crash" and stats_dict is not None:
            stats_dict["requeued_batches"] += 1
            stats_dict["requeued_packets"] += leg_packets
            stats_dict["requeue_seconds"] += service
        return completion

    def _split_step(self, plan: _NodePlan, connected: int,
                    survivors: float, mean_bytes: float,
                    completion: float, timeline: ResourceTimeline,
                    overheads: OverheadBreakdown) -> float:
        """Batch split (classifiers) or duplication (Tee) on fan-out."""
        if connected > 1 and not plan.is_tee:
            split_time = self.cost.split_seconds(max(1, round(survivors)))
            _start, completion = timeline.schedule(
                plan.merge_resource, completion, split_time,
            )
            overheads.batch_split += split_time
        if plan.is_tee and connected > 1:
            dup_time = self.cost.duplicate_seconds(
                max(1, round(survivors)),
                survivors * mean_bytes * (connected - 1),
            )
            _start, completion = timeline.schedule(
                plan.merge_resource, completion, dup_time,
            )
            overheads.duplication += dup_time
        return completion

    @staticmethod
    def _fanout_step(plan: _NodePlan, fractions: Dict[int, float],
                     survivors: float, completion: float,
                     inbox: Dict[str, List[_Token]]) -> None:
        for port, fraction in fractions.items():
            share = survivors * fraction
            if share <= _EPSILON_PACKETS:
                continue
            for dst in plan.edges_by_port.get(port, ()):
                inbox[dst].append(_Token(ready=completion, packets=share))

    # ------------------------------------------------------------------
    def measure_capacity(self, spec: TrafficSpec,
                         batch_size: int = 64,
                         batch_count: int = 200,
                         branch_profile=None,
                         saturation_gbps: float = 200.0,
                         trace=None,
                         **interference) -> float:
        """Saturation throughput in Gbps (offered load >> capacity).

        Every other spec field — the arrival process included — is
        preserved, so bursty specs are saturated under the same burst
        structure (re-normalized to the saturating mean rate).
        """
        trace = resolve_trace(trace)
        saturated = dataclasses.replace(
            spec, offered_gbps=max(spec.offered_gbps, saturation_gbps)
        )
        with trace.span("capacity", deployment=self.deployment.name,
                        saturation_gbps=saturation_gbps) as span:
            report = self.run(saturated, batch_size=batch_size,
                              batch_count=batch_count,
                              branch_profile=branch_profile,
                              trace=trace, **interference)
            span.set(capacity_gbps=report.throughput_gbps)
        return report.throughput_gbps
