"""Simulation result reporting.

:class:`ThroughputLatencyReport` carries the quantities the paper's
figures plot — throughput in Gbps/Mpps, latency statistics (mean,
percentiles, variance), drop counts — plus the overhead breakdown
(Fig. 5's "overhead fractions") and per-processor utilization.

Tail behavior is first-class: the report keeps the sorted per-batch
latency samples, so :meth:`ThroughputLatencyReport.latency_percentile`
answers any percentile (not just the precomputed p50/p95/p99),
``max_queue_depth`` exposes the deepest per-resource backlog the run
built up, and :meth:`ThroughputLatencyReport.check_slo` turns a
declarative :class:`SLO` into a violation list.

Every report carries one :class:`RunLedger` of what the run re-queued,
degraded, shed and dropped, and of the controller state it left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.overload.config import ControllerState


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(index))
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = index - lower
    return sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight


@dataclass
class LatencyStats:
    """Summary statistics over per-batch latencies (seconds)."""

    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    max: float = 0.0
    variance: float = 0.0
    samples: int = 0

    @classmethod
    def from_samples(cls, samples: List[float]) -> "LatencyStats":
        if not samples:
            return cls()
        ordered = sorted(samples)
        mean = sum(ordered) / len(ordered)
        variance = sum((s - mean) ** 2 for s in ordered) / len(ordered)
        return cls(
            mean=mean,
            p50=_percentile(ordered, 0.50),
            p95=_percentile(ordered, 0.95),
            p99=_percentile(ordered, 0.99),
            max=ordered[-1],
            variance=variance,
            samples=len(ordered),
        )

    @property
    def mean_ms(self) -> float:
        return self.mean * 1e3

    @property
    def mean_us(self) -> float:
        return self.mean * 1e6


@dataclass
class OverheadBreakdown:
    """Accumulated time per overhead category (seconds of busy time)."""

    cpu_compute: float = 0.0
    gpu_kernel: float = 0.0
    kernel_launch: float = 0.0
    pcie_transfer: float = 0.0
    batch_split: float = 0.0
    batch_merge: float = 0.0
    duplication: float = 0.0
    xor_merge: float = 0.0
    reassembly: float = 0.0

    @property
    def total(self) -> float:
        return (self.cpu_compute + self.gpu_kernel + self.kernel_launch
                + self.pcie_transfer + self.batch_split + self.batch_merge
                + self.duplication + self.xor_merge + self.reassembly)

    def fractions(self) -> Dict[str, float]:
        """Each category as a fraction of total busy time."""
        total = self.total
        if total <= 0:
            return {}
        return {
            "cpu_compute": self.cpu_compute / total,
            "gpu_kernel": self.gpu_kernel / total,
            "kernel_launch": self.kernel_launch / total,
            "pcie_transfer": self.pcie_transfer / total,
            "batch_split": self.batch_split / total,
            "batch_merge": self.batch_merge / total,
            "duplication": self.duplication / total,
            "xor_merge": self.xor_merge / total,
            "reassembly": self.reassembly / total,
        }

    @property
    def reorganization_fraction(self) -> float:
        """The paper's aggregated packet re-organization share."""
        total = self.total
        if total <= 0:
            return 0.0
        return (self.batch_split + self.batch_merge + self.duplication
                + self.xor_merge + self.reassembly) / total

    @property
    def offloading_fraction(self) -> float:
        """The paper's aggregated offloading-overhead share."""
        total = self.total
        if total <= 0:
            return 0.0
        return (self.kernel_launch + self.pcie_transfer) / total


@dataclass(frozen=True)
class SLO:
    """A declarative latency/loss service-level objective.

    All thresholds are optional; unset ones are not checked.  Latency
    bounds are in milliseconds, ``max_drop_rate`` a fraction in
    [0, 1].
    """

    p50_ms: Optional[float] = None
    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    mean_ms: Optional[float] = None
    max_drop_rate: Optional[float] = None


@dataclass
class SLOViolation:
    """One SLO threshold a report failed to meet."""

    metric: str
    actual: float
    limit: float

    def __str__(self) -> str:
        return f"{self.metric}: {self.actual:.4f} > {self.limit:.4f}"


@dataclass(frozen=True)
class Requeues:
    """Offload-leg shares one cause sent to a host core instead."""

    batches: int = 0
    packets: float = 0.0
    host_seconds: float = 0.0


@dataclass(frozen=True)
class RunLedger:
    """One run's accounting beyond the report's totals: re-queues by
    cause, fault-stretched dispatches, the peak offered rate, overload
    counts in batches, and the controller state the run ended in."""

    fault_crash: Requeues = Requeues()
    breaker_open: Requeues = Requeues()
    retry_exhausted: Requeues = Requeues()
    degraded_transfers: int = 0
    slowed_kernels: int = 0
    peak_rate_gbps: float = 0.0
    shed_batches: int = 0
    queue_dropped_batches: int = 0
    head_cancelled_batches: int = 0
    breaker_trips: int = 0
    retry_attempts: int = 0
    state: ControllerState = ControllerState()


@dataclass
class ThroughputLatencyReport:
    """The result of one simulation run."""

    name: str
    offered_gbps: float
    delivered_packets: float
    delivered_bytes: float
    dropped_packets: float
    makespan_seconds: float
    latency: LatencyStats
    overheads: OverheadBreakdown = field(default_factory=OverheadBreakdown)
    processor_busy_seconds: Dict[str, float] = field(default_factory=dict)
    #: Accumulated queueing delay per resource: how long tasks waited
    #: (start - ready) before the resource had a fitting gap.  Filled
    #: by the event kernel; empty for reports from older code paths.
    processor_queue_wait_seconds: Dict[str, float] = field(
        default_factory=dict
    )
    #: Sorted per-batch latencies (seconds), one per delivered batch.
    #: Filled by the event kernel; empty for reports from older code
    #: paths, in which case :meth:`latency_percentile` degrades to the
    #: precomputed p50/p95/p99 summary.
    latency_samples: List[float] = field(default_factory=list)
    #: Deepest simultaneous backlog per resource: the largest number
    #: of tasks that were ever waiting (ready but not started) on the
    #: resource at once.  Resources that never queued are absent.
    max_queue_depth: Dict[str, int] = field(default_factory=dict)
    #: Packets offered to the pipeline (batch_size x batch_count).
    #: The conservation invariant ``offered == delivered + dropped``
    #: holds whenever this is set (the event kernel always sets it).
    offered_packets: float = 0.0
    #: Packets shed by an admission controller before entering the
    #: pipeline (a subset of ``dropped_packets``: shedding is a policy
    #: decision, queue overflow a capacity failure).
    shed_packets: float = 0.0
    #: Queue-overflow drops per resource (packets), for runs with a
    #: bounded ``queue_limit``; empty otherwise.
    drops: Dict[str, float] = field(default_factory=dict)
    #: The latency SLO (milliseconds) goodput is judged against, from
    #: the run's :class:`~repro.overload.OverloadConfig`; ``None``
    #: when the run carried no SLO (goodput then equals throughput).
    slo_ms: Optional[float] = None
    #: Delivered bytes whose batch latency met ``slo_ms``.
    slo_delivered_bytes: float = 0.0
    ledger: RunLedger = RunLedger()

    @property
    def throughput_gbps(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.delivered_bytes * 8 / self.makespan_seconds / 1e9

    @property
    def throughput_mpps(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.delivered_packets / self.makespan_seconds / 1e6

    @property
    def drop_rate(self) -> float:
        total = self.delivered_packets + self.dropped_packets
        if total <= 0:
            return 0.0
        return self.dropped_packets / total

    @property
    def goodput_gbps(self) -> float:
        """Delivered throughput that met the latency SLO.

        With no SLO on the run this equals :attr:`throughput_gbps`;
        with one, late-delivered bytes are excluded — the quantity
        that plateaus (instead of collapsing) when overload protection
        degrades gracefully.
        """
        if self.slo_ms is None:
            return self.throughput_gbps
        if self.makespan_seconds <= 0:
            return 0.0
        return self.slo_delivered_bytes * 8 / self.makespan_seconds / 1e9

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered packets shed by admission control."""
        if self.offered_packets <= 0:
            return 0.0
        return self.shed_packets / self.offered_packets

    @property
    def queue_dropped_packets(self) -> float:
        """Total queue-overflow drops across resources."""
        return sum(self.drops.values())

    @property
    def conservation_error(self) -> float:
        """``|offered - delivered - dropped|``; 0.0 when untracked."""
        if self.offered_packets <= 0:
            return 0.0
        return abs(self.offered_packets - self.delivered_packets
                   - self.dropped_packets)

    def utilization(self) -> Dict[str, float]:
        """Busy fraction per processor over the makespan."""
        if self.makespan_seconds <= 0:
            return {}
        return {
            proc: busy / self.makespan_seconds
            for proc, busy in sorted(self.processor_busy_seconds.items())
        }

    def bottleneck_processor(self) -> Optional[str]:
        """The resource with the most committed busy time.

        At saturation this is the pipeline's capacity-limiting
        processor; ties break towards the lexicographically first
        resource name so the answer is deterministic.
        """
        if not self.processor_busy_seconds:
            return None
        return max(sorted(self.processor_busy_seconds),
                   key=lambda proc: self.processor_busy_seconds[proc])

    # -- latency distribution ------------------------------------------
    @property
    def p50(self) -> float:
        """Median per-batch latency, seconds."""
        return self.latency.p50

    @property
    def p95(self) -> float:
        """95th-percentile per-batch latency, seconds."""
        return self.latency.p95

    @property
    def p99(self) -> float:
        """99th-percentile per-batch latency, seconds."""
        return self.latency.p99

    def latency_percentile(self, percent: float) -> float:
        """Interpolated latency percentile, seconds.

        ``percent`` is in [0, 100]; 0 is the fastest delivered batch,
        100 the slowest.  Linear interpolation between order
        statistics (the same rule the precomputed p50/p95/p99 use).
        Reports without stored samples (legacy code paths) fall back
        to the nearest precomputed summary statistic.
        """
        if not 0.0 <= percent <= 100.0:
            raise ValueError(
                f"percentile must be in [0, 100], got {percent}"
            )
        if self.latency_samples:
            return _percentile(self.latency_samples, percent / 100.0)
        summary = {50.0: self.latency.p50, 95.0: self.latency.p95,
                   99.0: self.latency.p99, 100.0: self.latency.max}
        if percent in summary:
            return summary[percent]
        if self.latency.samples == 0:
            return 0.0
        raise ValueError(
            f"report {self.name!r} carries no latency samples; only "
            f"p50/p95/p99/p100 are available"
        )

    def check_slo(self, slo: SLO) -> List[SLOViolation]:
        """Every threshold of ``slo`` this run violated (empty: met)."""
        violations: List[SLOViolation] = []

        def check(metric: str, actual: float,
                  limit: Optional[float]) -> None:
            if limit is not None and actual > limit:
                violations.append(
                    SLOViolation(metric=metric, actual=actual,
                                 limit=limit))

        check("p50_ms", self.latency.p50 * 1e3, slo.p50_ms)
        check("p95_ms", self.latency.p95 * 1e3, slo.p95_ms)
        check("p99_ms", self.latency.p99 * 1e3, slo.p99_ms)
        check("mean_ms", self.latency.mean_ms, slo.mean_ms)
        check("drop_rate", self.drop_rate, slo.max_drop_rate)
        return violations

    def meets_slo(self, slo: SLO) -> bool:
        """True when no threshold of ``slo`` is violated."""
        return not self.check_slo(slo)

    @property
    def deepest_queue(self) -> Optional[str]:
        """The resource with the largest peak backlog, if any queued.

        Ties break towards the lexicographically first resource name,
        matching :meth:`bottleneck_processor`.
        """
        if not self.max_queue_depth:
            return None
        return max(sorted(self.max_queue_depth),
                   key=lambda proc: self.max_queue_depth[proc])

    @property
    def total_queue_wait_seconds(self) -> float:
        """Summed queueing delay across all resources."""
        return sum(self.processor_queue_wait_seconds.values())

    def queue_wait_fractions(self) -> Dict[str, float]:
        """Each resource's share of the total queueing delay."""
        total = self.total_queue_wait_seconds
        if total <= 0:
            return {}
        return {
            proc: wait / total
            for proc, wait in sorted(
                self.processor_queue_wait_seconds.items())
            if wait > 0
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name}: {self.throughput_gbps:.2f} Gbps "
            f"({self.throughput_mpps:.2f} Mpps), "
            f"latency mean {self.latency.mean_ms:.3f} ms "
            f"p50/p95/p99 {self.latency.p50 * 1e3:.3f}/"
            f"{self.latency.p95 * 1e3:.3f}/"
            f"{self.latency.p99 * 1e3:.3f} ms, "
            f"drops {self.drop_rate:.1%}"
        )
