"""Degradation-aware re-deployment.

:class:`ResilientRuntime` runs a chain epoch by epoch, on the shared
:class:`~repro.core.runtime.EpochLoop`, against a
:class:`~repro.faults.spec.FaultTimeline`.  Each epoch it derives
health signals for every offload device (a crash window intersecting
the epoch means "down"), shrinks the healthy device set, and re-runs
the NFCompass pipeline over the surviving inventory: crashed GPUs
leave the allocator's ``gpus`` list, crashed extra devices leave the
platform inventory entirely.  With every offload device down the
replan degrades to a valid host-only deployment (a partition with the
host group only).

Re-admission is hysteretic: a device must stay healthy for
``readmit_epochs`` consecutive epochs before a replan brings it back,
so a flapping link does not thrash the partitioner.  Replans run
inside a ``replan`` span and emit ``fault.replans`` /
``fault.device_down`` / ``fault.device_up`` counters through
:mod:`repro.obs`; the epoch simulation itself consumes the timeline
re-based to the epoch clock, so in-flight batches on a device that
dies mid-epoch are re-queued to the host by the event kernel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.compass import NFCompass
from repro.core.runtime import EpochLoop
from repro.faults.spec import FaultTimeline
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.generator import TrafficSpec


class ResilientRuntime(EpochLoop):
    """Fault-aware epoch loop around NFCompass.

    Implements the :class:`~repro.core.runtime.Runtime` protocol
    (``step``/``plan``/``session``).
    """

    def __init__(self, sfc: ServiceFunctionChain,
                 initial_spec: TrafficSpec,
                 faults: FaultTimeline,
                 platform: Optional[PlatformSpec] = None,
                 batch_size: int = 64,
                 readmit_epochs: int = 1,
                 arrivals: Optional[ArrivalProcess] = None,
                 overload=None,
                 trace=None):
        if readmit_epochs < 0:
            raise ValueError("readmit_epochs must be non-negative")
        self.platform = platform or PlatformSpec()
        faults.validate_against(self.platform)
        self.faults = faults
        self.readmit_epochs = readmit_epochs
        #: Simulated seconds already consumed by started epochs; the
        #: absolute fault timeline is re-based against this clock.
        self.clock = 0.0
        #: Offload devices currently excluded from planning.
        self.excluded: Set[str] = set()
        #: Consecutive healthy epochs per excluded device (hysteresis).
        self._healthy_streak: Dict[str, int] = {}
        self._extra_ids = {d.device_id
                           for d in self.platform.extra_devices}
        super().__init__(self._build_compass(), sfc, initial_spec,
                         batch_size, arrivals, overload, trace)

    # ------------------------------------------------------------------
    def offload_device_ids(self) -> List[str]:
        """Every offload-capable processor in the full inventory."""
        return (self.platform.gpu_processor_ids()
                + sorted(self._extra_ids))

    def healthy_devices(self) -> List[str]:
        """Offload devices currently admitted to planning."""
        return [d for d in self.offload_device_ids()
                if d not in self.excluded]

    # ------------------------------------------------------------------
    def _build_compass(self) -> NFCompass:
        gpus = [g for g in self.platform.gpu_processor_ids()
                if g not in self.excluded]
        crashed_extras = self.excluded & self._extra_ids
        platform = self.platform
        if crashed_extras:
            platform = platform.without_devices(*crashed_extras)
        return NFCompass(platform=platform, gpus=gpus)

    # ------------------------------------------------------------------
    def _epoch_health(self, t0: float, t1: float) -> Dict[str, bool]:
        """Device id -> healthy over the whole epoch window."""
        return {
            device_id: not self.faults.crashed_during(device_id, t0, t1)
            for device_id in self.offload_device_ids()
        }

    def _update_exclusions(self, health: Dict[str, bool]
                           ) -> Tuple[Set[str], Set[str]]:
        """Apply health signals; returns (newly down, re-admitted)."""
        went_down: Set[str] = set()
        came_back: Set[str] = set()
        for device_id, healthy in health.items():
            if not healthy:
                self._healthy_streak[device_id] = 0
                if device_id not in self.excluded:
                    self.excluded.add(device_id)
                    went_down.add(device_id)
            elif device_id in self.excluded:
                streak = self._healthy_streak.get(device_id, 0) + 1
                self._healthy_streak[device_id] = streak
                if streak > self.readmit_epochs:
                    self.excluded.discard(device_id)
                    came_back.add(device_id)
        return went_down, came_back

    def _replan(self, spec: TrafficSpec, went_down: Set[str],
                came_back: Set[str]) -> None:
        with self.trace.span("replan",
                             excluded=sorted(self.excluded),
                             down=sorted(went_down),
                             readmitted=sorted(came_back)):
            self.compass = self._build_compass()
            self._deploy(spec)
        self.trace.count("fault.replans")
        self.trace.count("fault.device_down", len(went_down))
        self.trace.count("fault.device_up", len(came_back))

    # ------------------------------------------------------------------
    def _begin_epoch(self, spec: TrafficSpec, batch_count: int):
        """Apply the epoch's health signals and re-plan on a change.

        The epoch covers ``batch_count`` batches of the runtime's
        batch size at the spec's arrival rate; devices whose crash
        windows intersect it are excluded before planning, and the
        epoch's simulation sees the fault timeline re-based to its
        local clock.
        """
        # The health window is the *mean-rate* span of the epoch; a
        # bursty process redistributes arrivals inside it but leaves
        # the long-run rate (and so the wall-clock budget) unchanged.
        window = batch_count * self.batch_size \
            * spec.mean_packet_interval()
        t0, t1 = self.clock, self.clock + window
        went_down, came_back = self._update_exclusions(
            self._epoch_health(t0, t1)
        )
        replanned = bool(went_down or came_back)
        if replanned:
            self._replan(spec, went_down, came_back)
        self.clock = t1
        return 0.0, replanned, self.faults.shifted(-t0)


__all__ = ["ResilientRuntime"]
