"""Dynamic task adaptation.

The paper's runtime collects time-dependent traffic statistics and
notes that the lightweight partitioning "may result in unbalanced
throughput on different processing units.  We still need to apply the
dynamic task adaption."  This module supplies that loop's trigger: an
:class:`AdaptiveRuntime` runs a deployment epoch by epoch on the
shared :class:`~repro.core.runtime.EpochLoop`, watches the traffic
descriptor (mean packet size, DPI match profile) for drift, and
re-runs the NFCompass pipeline when the current plan was built for
meaningfully different traffic.

Hysteresis (a cooldown of epochs after each re-plan) prevents
thrashing under oscillating traffic — the failure mode the paper
ascribes to prior schedulers that "adapt very slowly when the input
data stream varies" or not at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.compass import NFCompass
from repro.core.runtime import EpochLoop
from repro.nf.base import ServiceFunctionChain
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.generator import TrafficSpec


@dataclass(frozen=True)
class TrafficDescriptor:
    """The features the drift detector compares between epochs."""

    mean_packet_bytes: float
    match_profile: str

    @classmethod
    def of(cls, spec: TrafficSpec) -> "TrafficDescriptor":
        return cls(
            mean_packet_bytes=spec.size_law.mean(),
            match_profile=spec.match_profile.value,
        )

    def drift_from(self, other: "TrafficDescriptor") -> float:
        """A dimensionless drift score versus ``other``.

        Components: relative mean-packet-size change and a fixed charge
        for a match-profile switch.
        """
        size_drift = abs(self.mean_packet_bytes - other.mean_packet_bytes) \
            / max(1.0, other.mean_packet_bytes)
        profile_drift = 0.0 if self.match_profile == other.match_profile \
            else 1.0
        return size_drift + profile_drift


class AdaptiveRuntime(EpochLoop):
    """Epoch-driven re-planning loop around NFCompass.

    Re-plans when an epoch's traffic drifts past ``drift_threshold``
    from the traffic the plan was built for, then holds the plan for
    ``cooldown_epochs`` epochs whatever the drift.
    """

    def __init__(self, compass: NFCompass, sfc: ServiceFunctionChain,
                 initial_spec: TrafficSpec,
                 batch_size: int = 64,
                 drift_threshold: float = 0.25,
                 cooldown_epochs: int = 1,
                 arrivals: Optional[ArrivalProcess] = None,
                 overload=None,
                 trace=None):
        if not 0 < drift_threshold < math.inf:
            raise ValueError("drift threshold must be positive and finite")
        if cooldown_epochs < 0:
            raise ValueError("cooldown must be non-negative")
        self.drift_threshold = drift_threshold
        self.cooldown_epochs = cooldown_epochs
        self._cooldown = 0
        super().__init__(compass, sfc, initial_spec, batch_size,
                         arrivals, overload, trace)

    # ------------------------------------------------------------------
    def _deploy(self, spec: TrafficSpec) -> None:
        super()._deploy(spec)
        self._descriptor = TrafficDescriptor.of(spec)

    def observe_drift(self, spec: TrafficSpec) -> float:
        """Drift of ``spec`` relative to the plan's traffic."""
        incoming = TrafficDescriptor.of(spec)
        return incoming.drift_from(self._descriptor)

    def _begin_epoch(self, spec: TrafficSpec, batch_count: int):
        drift = self.observe_drift(spec)
        if drift > self.drift_threshold and self._cooldown == 0:
            self._deploy(spec)
            self._cooldown = self.cooldown_epochs
            return drift, True, None
        if self._cooldown > 0:
            self._cooldown -= 1
        return drift, False, None
