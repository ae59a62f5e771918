"""Declarative device-fault schedules.

A :class:`FaultSpec` describes one fault on one device of the platform
inventory over a half-open simulated-time window ``[start, end)``:

- ``crash`` — the device is unavailable; batches assigned to it (or in
  flight when the crash window overlaps their execution) are re-queued
  to the host core with a configurable penalty;
- ``degrade_link`` — the device's H2D/D2H transfers stretch by
  ``factor`` (a flapping PCIe/DMA link);
- ``slowdown`` — the device's kernel time stretches by ``factor`` (a
  thermal throttle or a transient co-tenant).

A :class:`FaultTimeline` bundles the specs for one run and is what the
event kernel (:meth:`repro.sim.kernel.SimulationSession.run`) and the
:class:`~repro.faults.runtime.ResilientRuntime` consume.  Timelines
are immutable values: :meth:`shifted` re-bases them to an epoch-local
clock, and :meth:`seeded` draws a deterministic chaos schedule from a
seed (the chaos sweep harness's entry point).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Sequence, Tuple

#: Fault kinds a schedule may contain.
FAULT_KINDS = ("crash", "degrade_link", "slowdown")

#: Default service-time multiplier for batches re-queued from a crashed
#: device onto the host core (re-submission, cold caches, no batching
#: amortization of the device path).
DEFAULT_REQUEUE_PENALTY = 1.5


@dataclass(frozen=True)
class FaultSpec:
    """One fault on one device over ``[start, end)`` simulated seconds.

    ``factor`` is the stretch multiplier for ``degrade_link`` and
    ``slowdown`` windows (>= 1); crashes ignore it.  ``end`` defaults
    to +inf (no recovery).
    """

    device_id: str
    kind: str
    start: float
    end: float = math.inf
    factor: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not self.device_id:
            raise ValueError("fault needs a device id")
        if not math.isfinite(self.start):
            raise ValueError("fault start must be finite")
        if not self.end > self.start:
            raise ValueError(
                f"fault window must be non-empty: start={self.start} "
                f"end={self.end}"
            )
        if self.kind != "crash" and not self.factor >= 1.0:
            raise ValueError(
                f"{self.kind} factor must be >= 1 (a stretch), "
                f"got {self.factor}"
            )

    def active(self, t: float) -> bool:
        """Whether the fault covers instant ``t``."""
        return self.start <= t < self.end

    def overlaps(self, t0: float, t1: float) -> bool:
        """Whether the fault window intersects ``[t0, t1)``.

        A zero-width query (``t0 == t1``) degenerates to
        :meth:`active` at ``t0`` so callers probing an instant get the
        same answer either way.
        """
        if t1 <= t0:
            return self.active(t0)
        return self.start < t1 and t0 < self.end


class FaultTimeline:
    """An immutable set of :class:`FaultSpec` for one simulated run.

    Query methods answer the kernel's three questions: is the device
    crashed at (or during) a time, how much do its link transfers
    stretch, and how much does its kernel time stretch.  Stretch
    factors of overlapping windows multiply.
    """

    __slots__ = ("_specs", "_by_device", "_windows", "requeue_penalty")

    def __init__(self, specs: Iterable[FaultSpec] = (),
                 requeue_penalty: float = DEFAULT_REQUEUE_PENALTY):
        if not requeue_penalty >= 1.0:
            raise ValueError("requeue penalty must be >= 1")
        self._specs: Tuple[FaultSpec, ...] = tuple(
            sorted(specs, key=lambda s: (s.device_id, s.start, s.kind))
        )
        self.requeue_penalty = requeue_penalty
        by_device: Dict[str, List[FaultSpec]] = {}
        for spec in self._specs:
            by_device.setdefault(spec.device_id, []).append(spec)
        self._by_device = {device: tuple(faults)
                           for device, faults in by_device.items()}
        # kind -> device -> its (start, end, factor) windows, in spec
        # order: by start, so a query stops at the first window that
        # starts after it, and factors multiply in the order of a scan
        # over the device's specs.
        self._windows: Dict[str, Dict[str, List[tuple]]] = {
            kind: {} for kind in FAULT_KINDS}
        for spec in self._specs:
            self._windows[spec.kind].setdefault(spec.device_id, []).append(
                (spec.start, spec.end, spec.factor))

    # -- inventory -----------------------------------------------------
    @property
    def specs(self) -> Tuple[FaultSpec, ...]:
        return self._specs

    @property
    def is_empty(self) -> bool:
        return not self._specs

    def device_ids(self) -> List[str]:
        """Devices with at least one fault, sorted."""
        return sorted(self._by_device)

    def affecting(self, device_id: str) -> Tuple[FaultSpec, ...]:
        return self._by_device.get(device_id, ())

    def validate_against(self, platform) -> None:
        """Raise a structured ``KeyError`` for ids outside the
        platform inventory."""
        known = set(platform.device_ids())
        unknown = [d for d in self.device_ids() if d not in known]
        if unknown:
            raise KeyError(
                f"fault schedule names unknown device(s) {unknown}; "
                f"platform devices: {sorted(known)}"
            )

    # -- kernel queries ------------------------------------------------
    def crashed(self, device_id: str, t: float) -> bool:
        """Whether ``device_id`` is crashed at instant ``t``."""
        for start, end, _factor in self._windows["crash"].get(
                device_id, ()):
            if start > t:
                break
            if t < end:
                return True
        return False

    def crashed_during(self, device_id: str, t0: float,
                       t1: float) -> bool:
        """Whether a crash window intersects ``[t0, t1)``.

        A zero-width query is :meth:`crashed` at ``t0``, as in
        :meth:`FaultSpec.overlaps`.
        """
        if t1 <= t0:
            return self.crashed(device_id, t0)
        for start, end, _factor in self._windows["crash"].get(
                device_id, ()):
            if start >= t1:
                break
            if t0 < end:
                return True
        return False

    def link_stretch(self, device_id: str, t: float) -> float:
        """H2D/D2H duration multiplier at instant ``t`` (>= 1)."""
        return self._stretch("degrade_link", device_id, t)

    def slowdown(self, device_id: str, t: float) -> float:
        """Kernel duration multiplier at instant ``t`` (>= 1)."""
        return self._stretch("slowdown", device_id, t)

    def _stretch(self, kind: str, device_id: str, t: float) -> float:
        """Product of the factors of ``kind`` windows covering ``t``."""
        stretch = 1.0
        for start, end, factor in self._windows[kind].get(device_id, ()):
            if start > t:
                break
            if t < end:
                stretch *= factor
        return stretch

    # -- derivation ----------------------------------------------------
    def shifted(self, delta: float) -> "FaultTimeline":
        """The same schedule with every window moved by ``delta``.

        Used to re-base an absolute schedule onto an epoch-local
        simulation clock (``shifted(-epoch_start)``).  Windows ending
        at or before the new zero are dropped; windows straddling it
        are clamped to start at 0.
        """
        if delta == 0.0:
            return self
        shifted: List[FaultSpec] = []
        for fault in self._specs:
            end = fault.end + delta if math.isfinite(fault.end) \
                else math.inf
            if end <= 0.0:
                continue
            shifted.append(replace(fault,
                                   start=max(0.0, fault.start + delta),
                                   end=end))
        return FaultTimeline(shifted,
                             requeue_penalty=self.requeue_penalty)

    def restricted_to(self, device_ids: Iterable[str]) -> "FaultTimeline":
        """Only the faults touching ``device_ids``."""
        keep = set(device_ids)
        return FaultTimeline(
            (f for f in self._specs if f.device_id in keep),
            requeue_penalty=self.requeue_penalty,
        )

    # -- construction helpers ------------------------------------------
    @classmethod
    def seeded(cls, seed: int, device_ids: Sequence[str],
               horizon: float,
               fault_rate: float = 1.0) -> "FaultTimeline":
        """A deterministic chaos schedule over ``[0, horizon)``.

        Each device draws ``Poisson``-ish fault counts (``fault_rate``
        expected faults per device); a fault is a crash with
        probability 1/2, else a link degrade or a slowdown.  Windows
        average a quarter of the horizon, and stretch factors are
        uniform in ``[1.5, 4]``.  The same ``(seed, device_ids,
        horizon, fault_rate)`` always produces the same schedule,
        which is what makes chaos sweeps replayable.
        """
        if not horizon > 0:
            raise ValueError("horizon must be positive")
        if not 0.0 <= fault_rate < math.inf:
            raise ValueError("fault_rate must be finite and >= 0")
        rng = random.Random(seed)
        specs: List[FaultSpec] = []
        for device_id in device_ids:
            count = 0
            remaining = fault_rate
            while remaining > 0:
                if rng.random() < min(1.0, remaining):
                    count += 1
                remaining -= 1.0
            for _ in range(count):
                start = rng.uniform(0.0, horizon * 0.9)
                width = rng.uniform(0.2, 1.8) * 0.25 * horizon
                end = min(horizon, start + max(width, horizon * 0.01))
                if rng.random() < 0.5:
                    specs.append(FaultSpec(device_id, "crash",
                                           start, end))
                else:
                    kind = ("degrade_link"
                            if rng.random() < 0.5 else "slowdown")
                    factor = rng.uniform(1.5, 4.0)
                    specs.append(FaultSpec(device_id, kind, start, end,
                                           factor=factor))
        return cls(specs)

    # -- fingerprinting ------------------------------------------------
    def __fingerprint__(self):
        """Canonical identity: the requeue penalty and every spec."""
        return {
            "type": "FaultTimeline",
            "requeue_penalty": self.requeue_penalty,
            "specs": [
                [f.device_id, f.kind, f.start,
                 ("inf" if math.isinf(f.end) else f.end), f.factor]
                for f in self._specs
            ],
        }

    # -- value semantics -----------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultTimeline):
            return NotImplemented
        return (self._specs == other._specs
                and self.requeue_penalty == other.requeue_penalty)

    def __hash__(self) -> int:
        return hash((self._specs, self.requeue_penalty))

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:
        return (f"FaultTimeline({len(self._specs)} fault(s) on "
                f"{self.device_ids()})")


def single_crash(device_id: str, start: float,
                 end: float = math.inf,
                 requeue_penalty: float = DEFAULT_REQUEUE_PENALTY
                 ) -> FaultTimeline:
    """Convenience: one device crashes at ``start`` (recovers at
    ``end`` if finite)."""
    return FaultTimeline([FaultSpec(device_id, "crash", start, end)],
                         requeue_penalty=requeue_penalty)


def empty_timeline() -> FaultTimeline:
    """A schedule with no faults (the kernel's zero-cost path)."""
    return FaultTimeline(())


__all__ = [
    "DEFAULT_REQUEUE_PENALTY",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultTimeline",
    "empty_timeline",
    "single_crash",
]
