"""GPU timing decomposition.

The offloading path of Fig. 4: pre-process, host-to-device copy,
kernel execution, device-to-host copy, post-process.  The kernel
launch/teardown cost (or the persistent-kernel dispatch cost) is
accounted separately because it is the overhead NFCompass's persistent
kernel design targets.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GpuTiming:
    """Per-batch GPU time breakdown (seconds)."""

    launch: float
    h2d: float
    kernel: float
    d2h: float

    @property
    def total(self) -> float:
        return self.launch + self.h2d + self.kernel + self.d2h

