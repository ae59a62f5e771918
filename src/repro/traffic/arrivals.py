"""Batch arrival processes: bursty, time-varying open-loop traffic.

Every simulation used to place batch *i* at ``i * inter_batch`` — a
constant-rate open loop that cannot express the bursty, time-varying
traffic a production platform serves.  This module makes the arrival
clock pluggable: a :class:`TrafficSpec` may carry an
:class:`ArrivalProcess`, and the event kernel asks it for the batch
arrival times instead of assuming uniform spacing.

Contract (all implementations):

- **Seeded and deterministic** — the same process object and the same
  ``(batch_count, batch_size, spec)`` always produce the identical
  float sequence, so runs are reproducible and the sharded sweep
  runner stays bit-deterministic across worker counts.
- **Open loop** — arrivals never react to simulated completions; the
  offered load is a function of time only (the paper's
  generator-machines model).  Faults and multi-tenant interference
  compose with any process because they act on the service side.
- **Rate-normalized** — timing derives from the spec's mean batch gap
  (``batch_size * spec.mean_packet_interval()``), so one process
  composes with any offered load and the *long-run mean* rate matches
  ``spec.offered_gbps`` (sampled processes converge; see the
  Hypothesis suite).
- **Fingerprintable** — ``__fingerprint__`` feeds
  :func:`repro.runner.fingerprint.canonical_form`, so a digest of a
  spec that carries a process covers the process parameters.

:class:`ConstantRate` is bit-identical to the historical uniform
clock: ``arrival[i] == i * inter_batch`` with the same IEEE operation
order, locked by the golden parity suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle (generator -> here)
    from repro.traffic.generator import TrafficSpec

#: Seed decorrelation stride for per-epoch re-seeding (an odd constant
#: so consecutive epochs never share a stream).
_EPOCH_SEED_STRIDE = 0x9E3779B1


def mean_batch_gap(batch_size: int, spec: "TrafficSpec") -> float:
    """The uniform inter-batch gap at the spec's offered rate.

    Exactly the expression the kernel's historical clock used
    (``batch_size * spec.mean_packet_interval()``) — every process
    normalizes its timing to this quantity.
    """
    return batch_size * spec.mean_packet_interval()


class ArrivalProcess:
    """Base class / protocol for batch arrival processes.

    Subclasses implement :meth:`batch_arrivals`; the remaining methods
    have defaults.  Frozen-dataclass subclasses get value equality and
    a parameter-complete fingerprint for free.
    """

    def batch_arrivals(self, batch_count: int, batch_size: int,
                       spec: "TrafficSpec") -> List[float]:
        """Arrival time (simulated seconds, from 0) of each batch.

        Must return exactly ``batch_count`` finite, non-decreasing
        floats starting at 0.0.
        """
        raise NotImplementedError

    def horizon(self, arrivals: List[float], batch_size: int,
                spec: "TrafficSpec") -> float:
        """End of the offered window (the makespan floor), given the
        ``arrivals`` that :meth:`batch_arrivals` drew for the run.

        Default: one mean gap past the last arrival, so throughput is
        normalized over the full offered window even when every batch
        completes instantly.
        """
        if not arrivals:
            return 0.0
        return arrivals[-1] + mean_batch_gap(batch_size, spec)

    def for_epoch(self, epoch: int) -> "ArrivalProcess":
        """A decorrelated copy for epoch-driven runtimes.

        Seeded processes re-seed per epoch (so every epoch sees fresh
        burst placement); deterministic ones return themselves.
        """
        if any(f.name == "seed" for f in fields(self)) and epoch:
            return replace(self,
                           seed=self.seed + epoch * _EPOCH_SEED_STRIDE)
        return self

    def __fingerprint__(self) -> dict:
        """Canonical identity: class name + every field value."""
        return {
            "arrival_process": type(self).__qualname__,
            "params": {f.name: getattr(self, f.name)
                       for f in fields(self)},
        }


@dataclass(frozen=True)
class ConstantRate(ArrivalProcess):
    """The historical uniform clock: batch *i* arrives at ``i * gap``.

    Bit-identical to the implicit clock every pre-arrival-process run
    used (same multiplication, same association), which the golden
    parity tests assert byte-for-byte through the
    :class:`~repro.sim.tracing.EventRecorder`.
    """

    def batch_arrivals(self, batch_count: int, batch_size: int,
                       spec: "TrafficSpec") -> List[float]:
        gap = mean_batch_gap(batch_size, spec)
        return [index * gap for index in range(batch_count)]

    def horizon(self, arrivals: List[float], batch_size: int,
                spec: "TrafficSpec") -> float:
        # Exactly the legacy ``inter_batch * batch_count`` makespan
        # floor (NOT last_arrival + gap, whose rounding differs).
        return mean_batch_gap(batch_size, spec) * len(arrivals)


@dataclass(frozen=True)
class Poisson(ArrivalProcess):
    """Memoryless arrivals: exponential gaps with the spec's mean."""

    seed: int = 101

    def batch_arrivals(self, batch_count: int, batch_size: int,
                       spec: "TrafficSpec") -> List[float]:
        gap = mean_batch_gap(batch_size, spec)
        rng = random.Random(self.seed)
        arrivals: List[float] = []
        clock = 0.0
        for index in range(batch_count):
            arrivals.append(clock)
            clock += rng.expovariate(1.0) * gap
        return arrivals


@dataclass(frozen=True)
class MMPP(ArrivalProcess):
    """Two-state Markov-modulated (on/off bursty) arrivals.

    The process alternates between an ON state offering
    ``burst_factor`` times the mean batch rate and an OFF state whose
    rate is chosen so the *long-run* mean stays at the configured
    load::

        r_on  = burst_factor / gap
        r_off = (1 - duty_cycle * burst_factor) / (1 - duty_cycle) / gap

    ``duty_cycle`` is the long-run fraction of time spent ON (state
    sojourns are exponential with means ``duty_cycle * cycle`` and
    ``(1 - duty_cycle) * cycle`` where ``cycle = cycle_batches *
    gap``), so ``duty_cycle * burst_factor <= 1`` is required — at
    equality the OFF state is fully silent (classic on-off traffic).
    """

    burst_factor: float = 4.0
    duty_cycle: float = 0.25
    cycle_batches: float = 40.0
    seed: int = 211

    def __post_init__(self):
        if not self.burst_factor >= 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError("duty_cycle must be in (0, 1)")
        if self.duty_cycle * self.burst_factor > 1.0 + 1e-12:
            raise ValueError(
                f"duty_cycle * burst_factor = "
                f"{self.duty_cycle * self.burst_factor:.3f} > 1 would "
                f"need a negative OFF rate to preserve the mean load"
            )
        if not self.cycle_batches > 0:
            raise ValueError("cycle_batches must be positive")

    def batch_arrivals(self, batch_count: int, batch_size: int,
                       spec: "TrafficSpec") -> List[float]:
        gap = mean_batch_gap(batch_size, spec)
        rate_on = self.burst_factor / gap
        off_share = 1.0 - self.duty_cycle * self.burst_factor
        rate_off = max(0.0, off_share / (1.0 - self.duty_cycle)) / gap
        cycle = self.cycle_batches * gap
        mean_on = self.duty_cycle * cycle
        mean_off = (1.0 - self.duty_cycle) * cycle

        rng = random.Random(self.seed)
        arrivals: List[float] = []
        clock = 0.0
        on = rng.random() < self.duty_cycle
        state_end = clock + rng.expovariate(1.0) \
            * (mean_on if on else mean_off)
        while len(arrivals) < batch_count:
            rate = rate_on if on else rate_off
            if rate <= 0.0:
                # Silent OFF period: jump to the next ON sojourn.
                clock = state_end
                on = True
                state_end = clock + rng.expovariate(1.0) * mean_on
                continue
            gap_draw = rng.expovariate(1.0) / rate
            if clock + gap_draw >= state_end:
                # Sojourn ends before the next arrival; memorylessness
                # lets us discard the partial draw and resample in the
                # new state.
                clock = state_end
                on = not on
                state_end = clock + rng.expovariate(1.0) \
                    * (mean_on if on else mean_off)
                continue
            clock += gap_draw
            arrivals.append(clock)
        # Re-base so the first batch arrives at t=0 like every other
        # process (the leading OFF sojourn is not offered load).
        first = arrivals[0]
        return [a - first for a in arrivals]


#: On-off bursty traffic is the ``duty_cycle * burst_factor == 1``
#: corner of the MMPP (silent OFF state); exported under both names.
OnOffBursty = MMPP


@dataclass(frozen=True)
class DiurnalRamp(ArrivalProcess):
    """Deterministic slow rate modulation (a compressed diurnal cycle).

    The instantaneous batch rate follows ``base * (1 + amplitude *
    sin(2 pi (t / period + phase)))`` with ``amplitude = 1 -
    trough_ratio``, so the rate swings between ``trough_ratio`` and
    ``2 - trough_ratio`` times the mean and averages to the configured
    load over whole cycles.  Arrivals are generated open-loop by
    stepping the reciprocal rate; no randomness is involved, so two
    runs are trivially identical.

    ``for_epoch`` advances ``phase`` by ``phase_per_epoch`` — an
    epoch-driven runtime stepping the same process therefore sees the
    offered load climb and fall across epochs.
    """

    trough_ratio: float = 0.25
    period_batches: float = 200.0
    phase: float = 0.0
    phase_per_epoch: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.trough_ratio <= 1.0:
            raise ValueError("trough_ratio must be in (0, 1]")
        if not self.period_batches > 0:
            raise ValueError("period_batches must be positive")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")
        if not math.isfinite(self.phase_per_epoch):
            raise ValueError("phase_per_epoch must be finite")

    def for_epoch(self, epoch: int) -> "DiurnalRamp":
        if not epoch:
            return self
        return replace(self,
                       phase=self.phase + epoch * self.phase_per_epoch)

    def batch_arrivals(self, batch_count: int, batch_size: int,
                       spec: "TrafficSpec") -> List[float]:
        gap = mean_batch_gap(batch_size, spec)
        period = self.period_batches * gap
        amplitude = 1.0 - self.trough_ratio
        arrivals: List[float] = []
        clock = 0.0
        for index in range(batch_count):
            arrivals.append(clock)
            relative = 1.0 + amplitude * math.sin(
                2.0 * math.pi * (clock / period + self.phase)
            )
            clock += gap / max(self.trough_ratio, relative)
        return arrivals


def peak_rate_gbps(arrivals: List[float], batch_size: int,
                   spec: "TrafficSpec", window_batches: int = 8) -> float:
    """Peak offered rate over any ``window_batches`` consecutive batches.

    The densest window's wire bits over its duration.  A windowed
    maximum (rather than the single smallest gap) keeps the number
    meaningful for memoryless processes, whose minimum gap shrinks
    without bound as the run lengthens.  Uniform schedules report the
    configured ``offered_gbps`` (to within FP rounding); bursty ones
    its burst multiple.  Degenerate schedules — fewer
    than two batches, or a zero-duration densest window — fall back to
    the configured rate.
    """
    if window_batches < 2:
        raise ValueError("window_batches must be at least 2")
    if len(arrivals) < 2:
        return spec.offered_gbps
    span = min(window_batches, len(arrivals)) - 1
    min_window = math.inf
    for index in range(len(arrivals) - span):
        duration = arrivals[index + span] - arrivals[index]
        if 0.0 < duration < min_window:
            min_window = duration
    if not math.isfinite(min_window):
        return spec.offered_gbps
    # Mean wire bits per packet at the offered rate; folds the same
    # Ethernet overhead mean_packet_interval() does.
    bits_per_packet = spec.offered_gbps * 1e9 * spec.mean_packet_interval()
    return span * batch_size * bits_per_packet / min_window / 1e9


def attach_arrivals(spec: "TrafficSpec",
                    process: Optional[ArrivalProcess],
                    epoch: int = 0) -> "TrafficSpec":
    """Attach a runtime-level arrival process to an epoch's spec.

    The epoch-driven runtimes accept an ``arrivals=`` process and apply
    it to every epoch whose spec does not carry one of its own — a spec
    with an explicit process always wins.  ``epoch`` feeds
    :meth:`ArrivalProcess.for_epoch`, so seeded processes decorrelate
    across epochs and a :class:`DiurnalRamp` advances its phase.
    """
    if process is None or spec.arrivals is not None:
        return spec
    return replace(spec, arrivals=process.for_epoch(epoch))


#: Shared default: the bit-identical historical clock.
CONSTANT_RATE = ConstantRate()


__all__ = [
    "ArrivalProcess",
    "CONSTANT_RATE",
    "ConstantRate",
    "DiurnalRamp",
    "MMPP",
    "OnOffBursty",
    "Poisson",
    "attach_arrivals",
    "mean_batch_gap",
    "peak_rate_gbps",
]
