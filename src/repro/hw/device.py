"""Device-neutral processor registry.

The paper's platform is exactly one CPU/GPU pair, and until this module
existed the binary assumption was baked into every layer.  The
registry replaces it with three neutral concepts:

- :class:`LinkSpec` — an interconnect between the host and an offload
  device (PCIe for the discrete GPU, a DMA bridge for a SmartNIC-style
  engine).  A device with ``link=None`` is host-resident (a CPU core)
  and pays no boundary transfers.
- :class:`DeviceSpec` — one processor: an id, a *kind* (``"cpu"``,
  ``"gpu"``, ``"smartnic"``, ...) and the cost-model hooks the
  simulator and allocator consume: per-batch fixed cost (kernel launch
  or dispatch), a batch-size utilization curve, speedup/divergence
  parameters, cache/bandwidth limits, and the transfer link.
- a **device-kind registry** mapping kind names to default field
  values, so new device kinds are registered *purely as data* — no
  subclassing, no code in the cost model.

The built-in kinds are the paper's CPU socket and discrete GPU plus a
SmartNIC-style offload engine defined entirely by registry data (see
:data:`SMARTNIC_KIND`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

#: The default host processor id.  The shared constant behind what
#: used to be hardcoded ``"cpu0"`` literals across sim/core/tests.
DEFAULT_HOST_DEVICE = "cpu0"


@dataclass(frozen=True)
class LinkSpec:
    """A host<->device interconnect (the H2D/D2H boundary).

    The transfer law is a per-transfer setup latency, a per-packet
    descriptor cost, and a bandwidth term.  The defaults are the
    paper's GPU link, PCIe 3.0 x16.  ``name`` prefixes the simulator's
    DMA resource ids (``{name}:{device}:h2d`` / ``:d2h``).
    """

    name: str = "pcie"
    bandwidth_bps: float = 12.0e9 * 8  # ~12 GB/s effective
    latency_seconds: float = 2.5e-6    # DMA setup + doorbell
    #: Per-packet descriptor/scatter-gather cost: un-optimized
    #: offloading copies packets individually, which is why
    #: transfer-bound NFs (IPv4 forwarding) gain nothing from a
    #: discrete GPU on the paper's testbed.
    per_packet_seconds: float = 150e-9

    def transfer_seconds(self, byte_count: float,
                         packet_count: float = 0.0) -> float:
        """Time to move ``byte_count`` bytes of ``packet_count``
        packets across the link."""
        if byte_count <= 0:
            return 0.0
        return (self.latency_seconds
                + self.per_packet_seconds * packet_count
                + (byte_count * 8) / self.bandwidth_bps)


@dataclass(frozen=True)
class DeviceSpec:
    """One processor and its cost-model hooks.

    A host device (``link=None``) runs the per-element CPU cycle laws
    directly; an offload device runs them scaled by
    ``base_speedup``/``intensity_gain`` under the utilization curve,
    with transfers charged on ``link``.  The GPU-specific defaults
    (infinite cache, infinite bandwidth, no spill penalty) make every
    penalty term opt-in data.
    """

    device_id: str
    kind: str
    #: Per-batch fixed cost: full kernel launch/teardown.
    launch_seconds: float = 0.0
    #: Per-batch fixed cost under a persistent-kernel design.
    persistent_dispatch_seconds: float = 0.0
    #: Batch size reaching half of peak utilization; 0 disables the
    #: under-occupancy model (utilization is always 1).
    half_saturation_batch: int = 0
    #: Peak speedup over one host core for a unit-intensity kernel.
    base_speedup: float = 1.0
    #: Log-response amplification of speedup with compute intensity.
    intensity_gain: float = 0.0
    #: Service-time inflation at fully mixed-flow batches for
    #: divergent kernels (1.0 = no penalty).
    divergence_penalty: float = 1.0
    #: Launch-cost contention multiplier per co-running kernel.
    corun_launch_inflation: float = 0.0
    #: On-device cache; element tables larger than this pay the spill
    #: penalty.  inf disables the term.
    cache_bytes: float = math.inf
    #: Service-time inflation per doubling of a table beyond the cache.
    table_spill_penalty: float = 0.0
    #: Device memory bandwidth floor; inf disables the term.
    memory_bandwidth_bps: float = math.inf
    #: Fraction of touched bytes streamed from device memory.
    mem_traffic_factor: float = 1.0
    #: Interconnect to the host; None marks a host-resident device.
    link: Optional[LinkSpec] = None
    #: Element kinds the device can run; None means any offloadable
    #: element (the GPU's general-purpose model).
    supported_elements: Optional[Tuple[str, ...]] = None

    @property
    def is_host(self) -> bool:
        """Host-resident devices pay no boundary transfers."""
        return self.link is None

    def utilization(self, batch_size: int) -> float:
        """Fraction of peak rate achieved at a given batch size.

        Identical to the GPU law: ``n / (n + half_saturation_batch)``,
        saturating from a small-batch under-occupancy floor.
        """
        half = self.half_saturation_batch
        if half <= 0:
            return 1.0
        if batch_size <= 0:
            return 1.0 / (1 + half)
        return batch_size / (batch_size + half)

    def supports(self, element_kind: str) -> bool:
        if self.supported_elements is None:
            return True
        return element_kind in self.supported_elements

    def with_id(self, device_id: str) -> "DeviceSpec":
        return replace(self, device_id=device_id)

    def describe(self) -> str:
        parts = [f"{self.device_id} kind={self.kind}"]
        if self.is_host:
            parts.append("host")
        else:
            parts.append(
                f"launch={self.launch_seconds * 1e6:.1f}us"
                f"/{self.persistent_dispatch_seconds * 1e6:.1f}us"
            )
            parts.append(f"speedup={self.base_speedup:g}"
                         f"+{self.intensity_gain:g}log2(1+I)")
            parts.append(f"half_batch={self.half_saturation_batch}")
            if self.link is not None:
                parts.append(
                    f"link={self.link.name}"
                    f"@{self.link.bandwidth_bps / 8e9:.1f}GB/s"
                )
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Device-kind registry: kind name -> default DeviceSpec field values.
# New kinds are data, not code.
# ---------------------------------------------------------------------------

_DEVICE_KINDS: Dict[str, Dict[str, Any]] = {}


def register_device_kind(kind: str, defaults: Dict[str, Any],
                         replace_existing: bool = False) -> None:
    """Register (or re-register) a device kind as default field data."""
    if kind in _DEVICE_KINDS and not replace_existing:
        raise ValueError(f"device kind {kind!r} is already registered")
    unknown = set(defaults) - set(DeviceSpec.__dataclass_fields__)
    if unknown:
        raise ValueError(
            f"unknown DeviceSpec fields for kind {kind!r}: "
            f"{sorted(unknown)}"
        )
    _DEVICE_KINDS[kind] = dict(defaults)


def device_kinds() -> List[str]:
    """Registered kind names, registration order."""
    return list(_DEVICE_KINDS)


def device_kind_defaults(kind: str) -> Dict[str, Any]:
    """A copy of the registered default field data for ``kind``."""
    try:
        return dict(_DEVICE_KINDS[kind])
    except KeyError:
        raise KeyError(
            f"unknown device kind {kind!r}; registered kinds: "
            f"{device_kinds()}"
        ) from None


def make_device(kind: str, device_id: str, **overrides: Any) -> DeviceSpec:
    """Instantiate a registered kind with optional field overrides."""
    fields = device_kind_defaults(kind)
    fields.update(overrides)
    return DeviceSpec(device_id=device_id, kind=kind, **fields)


#: Host CPU cores: no fixed batch cost, no link — the per-element
#: cycle laws apply unscaled.
CPU_KIND = "cpu"
register_device_kind(CPU_KIND, {})

#: The discrete GPU, Table I's Titan X behind the default (PCIe)
#: ``LinkSpec``.  The only place its numbers are written:
#: ``PlatformSpec.gpu`` defaults to this entry, and every GPU id of a
#: platform is that spec under its own id.
GPU_KIND = "gpu"
register_device_kind(GPU_KIND, {
    # Kernel launch + teardown, the small-batch offload overhead the
    # paper blames; a persistent kernel pays only the dispatch.
    "launch_seconds": 6e-6,
    "persistent_dispatch_seconds": 1.2e-6,
    # The under-occupancy floor behind Fig. 6's interior optima.
    "half_saturation_batch": 128,
    "base_speedup": 10.0,
    "intensity_gain": 5.0,
    "divergence_penalty": 1.4,
    "corun_launch_inflation": 0.6,
    "cache_bytes": float(3 * 1024 * 1024),
    "table_spill_penalty": 0.5,
    "memory_bandwidth_bps": 336.5e9,
    "mem_traffic_factor": 2.0,
    "link": LinkSpec(),
})

#: A SmartNIC-style offload engine, defined purely as registry data:
#: cheap dispatch (no kernel launch path), modest parallel speedup
#: that saturates at small batches, a fast on-path DMA bridge with
#: tiny per-packet cost (packets already live on the NIC), but a
#: small table memory and low DRAM bandwidth.
SMARTNIC_KIND = "smartnic"
register_device_kind(SMARTNIC_KIND, {
    "launch_seconds": 2.0e-6,
    "persistent_dispatch_seconds": 0.4e-6,
    "half_saturation_batch": 16,
    "base_speedup": 3.0,
    "intensity_gain": 1.0,
    "divergence_penalty": 1.1,
    "corun_launch_inflation": 0.2,
    "cache_bytes": float(16 * 1024 * 1024),
    "table_spill_penalty": 1.0,
    "memory_bandwidth_bps": 40.0e9,
    "mem_traffic_factor": 1.2,
    "link": LinkSpec(name="nicdma", bandwidth_bps=10.0e9 * 8,
                     latency_seconds=0.8e-6,
                     per_packet_seconds=20e-9),
})


def smartnic_device(device_id: str = "nic0",
                    **overrides: Any) -> DeviceSpec:
    """The data-defined SmartNIC offload engine."""
    return make_device(SMARTNIC_KIND, device_id, **overrides)
