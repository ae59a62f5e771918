"""Circuit-broken offload dispatch.

PR 8's :class:`~repro.faults.runtime.ResilientRuntime` reacts to
device failures at *epoch* granularity (replan around the crashed
device next epoch).  Inside an epoch, every batch dispatched to a
crashed or degraded device still pays the full timeout before falling
back to the host.  The classes here give the kernel per-batch
containment:

- :class:`RetryPolicy` — a failed offload attempt (crash window, or a
  link degraded past ``timeout_stretch``) is retried against the
  device with bounded exponential backoff, up to ``budget`` retries;
  exhaustion falls back to the host re-queue path.  Backoff and the
  timeout itself are expressed in multiples of the attempt's estimated
  execution window, so the policy is scale-free across cost models.

- :class:`CircuitBreaker` — after ``failure_threshold`` *consecutive*
  failed dispatches to one device the breaker trips open: further
  batches skip the device (and its timeout!) entirely and go straight
  to the host.  After a cooldown the breaker goes half-open and lets
  one probe batch through; a probe success closes the breaker, a probe
  failure re-opens it for another cooldown.

Both are frozen values; a run tracks devices in a :class:`BreakerTable`.
All of it runs on the *simulated* clock — no wall time, no randomness
— so runs remain deterministic and serial == parallel in every sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

#: Breaker states (per device).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry discipline for failed offload dispatches.

    ``budget`` is the number of *re*-dispatches after the first failed
    attempt; ``budget=0`` falls back to the host on the first failure.
    The ``attempt``-th retry waits ``min(backoff_cap, backoff_base *
    2**attempt)`` execution windows before re-dispatching.  A link
    whose stretch factor reaches ``timeout_stretch`` counts as a
    timeout even though the transfer would eventually finish.
    """

    budget: int = 2
    backoff_base: float = 0.5
    backoff_cap: float = 4.0
    timeout_stretch: float = math.inf

    def __post_init__(self):
        if not self.budget >= 0:
            raise ValueError("budget must be non-negative")
        if not self.backoff_base >= 0:
            raise ValueError("backoff_base must be non-negative")
        if not self.backoff_cap >= self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")
        if not self.timeout_stretch > 1.0:
            raise ValueError("timeout_stretch must exceed 1.0")

    def backoff_seconds(self, attempt: int, window: float) -> float:
        """Backoff before retry ``attempt`` (0-based), in seconds."""
        return min(self.backoff_cap,
                   self.backoff_base * (2.0 ** attempt)) * window


@dataclass(frozen=True)
class BreakerEntry:
    """One device's breaker state; ``opened_at`` and ``cooldown`` only
    matter while it is open."""

    device_id: str
    state: str = CLOSED
    failures: int = 0
    opened_at: float = 0.0
    cooldown: float = 0.0


@dataclass(frozen=True)
class CircuitBreaker:
    """Per-device consecutive-failure breaker on the simulated clock.

    ``cooldown`` is ``cooldown_s`` seconds when given, else
    ``cooldown_windows`` multiples of the failing dispatch's estimated
    execution window (scale-free default).
    """

    failure_threshold: int = 3
    cooldown_windows: float = 16.0
    cooldown_s: Optional[float] = None

    def __post_init__(self):
        if not self.failure_threshold >= 1:
            raise ValueError("failure_threshold must be at least 1")
        if not self.cooldown_windows > 0:
            raise ValueError("cooldown_windows must be positive")
        if self.cooldown_s is not None and not self.cooldown_s > 0:
            raise ValueError("cooldown_s must be positive")


class BreakerTable:
    """One run's per-device states under a :class:`CircuitBreaker`."""

    __slots__ = ("breaker", "_devices", "trips")

    def __init__(self, breaker: CircuitBreaker,
                 entries: Tuple[BreakerEntry, ...] = ()):
        self.breaker = breaker
        self._devices: Dict[str, BreakerEntry] = {
            entry.device_id: entry for entry in entries
        }
        #: Closed/half-open -> open transitions in this table's run.
        self.trips = 0

    def state(self, device_id: str) -> str:
        """The device's current nominal state (no clock applied)."""
        entry = self._devices.get(device_id)
        return CLOSED if entry is None else entry.state

    def allow(self, device_id: str, now: float) -> bool:
        """May a batch be dispatched to ``device_id`` at sim-time
        ``now``?  An open breaker whose cooldown has elapsed moves to
        half-open and admits the caller as its probe."""
        entry = self._devices.get(device_id)
        if entry is None or entry.state != OPEN:
            return True
        if now >= entry.opened_at + entry.cooldown:
            self._devices[device_id] = replace(entry, state=HALF_OPEN)
            return True
        return False

    def record_failure(self, device_id: str, now: float,
                       window: float) -> None:
        """One failed dispatch observed at ``now`` whose estimated
        execution window was ``window`` seconds."""
        entry = self._devices.get(device_id) or BreakerEntry(device_id)
        breaker = self.breaker
        if (entry.state == HALF_OPEN
                or entry.failures + 1 >= breaker.failure_threshold):
            cooldown = (breaker.cooldown_s
                        if breaker.cooldown_s is not None
                        else breaker.cooldown_windows * window)
            entry = BreakerEntry(device_id, OPEN, 0, now, cooldown)
            self.trips += 1
        else:
            entry = replace(entry, failures=entry.failures + 1)
        self._devices[device_id] = entry

    def record_success(self, device_id: str) -> None:
        entry = self._devices.get(device_id)
        if entry is not None and (entry.failures
                                  or entry.state == HALF_OPEN):
            self._devices[device_id] = BreakerEntry(
                device_id, OPEN if entry.state == OPEN else CLOSED, 0,
                entry.opened_at, entry.cooldown)

    def open_devices(self) -> Dict[str, float]:
        """Device id -> re-probe time for every currently open device."""
        return {
            device_id: entry.opened_at + entry.cooldown
            for device_id, entry in sorted(self._devices.items())
            if entry.state == OPEN
        }

    def entries(self) -> Tuple[BreakerEntry, ...]:
        """The table frozen, sorted by device, without closed devices
        that count no failures."""
        return tuple(
            entry for _device_id, entry in sorted(self._devices.items())
            if entry.state != CLOSED or entry.failures
        )

    def __repr__(self) -> str:
        return (f"BreakerTable(threshold="
                f"{self.breaker.failure_threshold}, trips={self.trips}, "
                f"open={sorted(self.open_devices())})")


__all__ = [
    "BreakerEntry",
    "BreakerTable",
    "CLOSED",
    "CircuitBreaker",
    "HALF_OPEN",
    "OPEN",
    "RetryPolicy",
]
