"""Heterogeneous platform performance model.

Replaces the paper's physical testbed (Table I: 4-socket Xeon E7-4809
v2 + 2x Nvidia Titan X + 10/40 GbE) with an analytical model exposing
the mechanisms the paper's characterization identifies:

- per-element CPU cycle costs that depend on packet size, batch size
  (through a cache model), and DPI match profile;
- a GPU model with kernel launch/teardown costs, persistent kernels,
  batch-size-dependent utilization, warp divergence, and PCIe
  transfer costs;
- a co-run interference model (cache pressure/sensitivity on CPU,
  kernel-launch contention on GPU).

Absolute numbers are calibrated to land in the paper's ranges; the
reproduction targets are the *shapes* (knees, optima, orderings).
"""

from repro.hw.device import (
    CPU_KIND,
    DEFAULT_HOST_DEVICE,
    GPU_KIND,
    SMARTNIC_KIND,
    DeviceSpec,
    LinkSpec,
    device_kind_defaults,
    device_kinds,
    make_device,
    register_device_kind,
    smartnic_device,
)
from repro.hw.platform import CPUSpec, PlatformSpec
from repro.hw.costs import CostModel, CostParams, BatchStats
from repro.hw.cache import cache_penalty_factor
from repro.hw.gpu import GpuTiming
from repro.hw.interference import InterferenceModel, NF_PRESSURE_PROFILES

__all__ = [
    "PlatformSpec",
    "CPUSpec",
    "CostModel",
    "CostParams",
    "BatchStats",
    "cache_penalty_factor",
    "GpuTiming",
    "InterferenceModel",
    "NF_PRESSURE_PROFILES",
    # device registry
    "DEFAULT_HOST_DEVICE",
    "DeviceSpec",
    "LinkSpec",
    "CPU_KIND",
    "GPU_KIND",
    "SMARTNIC_KIND",
    "device_kinds",
    "device_kind_defaults",
    "make_device",
    "register_device_kind",
    "smartnic_device",
]
