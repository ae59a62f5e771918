"""Platform specification (the paper's Table I, as data).

The defaults mirror the paper's COTS server: a 4-socket SuperMicro
8048B with Intel Xeon E7-4809 v2 processors (1.9 GHz IvyBridge, 6
physical cores per socket, 256 KB L2 per core, 12 MB L3 per socket)
and two Nvidia Titan X GPUs behind PCIe.  The GPU's numbers live only
in the ``gpu`` device-kind registry entry
(:data:`~repro.hw.device.GPU_KIND`), whose link is the default (PCIe)
:class:`~repro.hw.device.LinkSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.hw.device import GPU_KIND, DeviceSpec, make_device, \
    smartnic_device


@dataclass(frozen=True)
class CPUSpec:
    """One CPU socket."""

    cores: int = 6
    frequency_hz: float = 1.9e9
    l2_bytes: int = 256 * 1024
    l3_bytes: int = 12 * 1024 * 1024

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles / self.frequency_hz


@dataclass(frozen=True)
class PlatformSpec:
    """The full heterogeneous server: a collection of devices + links.

    ``sockets`` CPU sockets and ``gpus`` identical discrete GPUs (the
    Table I default); ``gpu`` is one GPU as a
    :class:`~repro.hw.device.DeviceSpec` whose ``link`` is its PCIe
    link.  Additional offload devices are carried in ``extra_devices``,
    making the platform an N-way device inventory (see :meth:`devices`
    / :meth:`offload_device_groups`).
    """

    sockets: int = 4
    cpu: CPUSpec = field(default_factory=CPUSpec)
    gpus: int = 2
    gpu: DeviceSpec = field(
        default_factory=lambda: make_device(GPU_KIND, "gpu"))
    #: Offload devices beyond the built-in GPUs, registered as data.
    extra_devices: Tuple[DeviceSpec, ...] = ()

    def __post_init__(self):
        if self.sockets < 1:
            raise ValueError(f"sockets must be at least 1, got "
                             f"{self.sockets}")
        if self.cpu.cores < 1:
            raise ValueError(f"cpu.cores must be at least 1, got "
                             f"{self.cpu.cores}")
        if self.gpus < 0:
            raise ValueError(f"gpus must not be negative, got "
                             f"{self.gpus}")
        if self.gpu.is_host:
            raise ValueError(
                f"gpu {self.gpu.device_id!r} has no link; the GPU sits "
                "behind PCIe"
            )
        seen = set(self.gpu_processor_ids())
        for device in self.extra_devices:
            if device.is_host:
                raise ValueError(
                    f"extra device {device.device_id!r} has no link; "
                    "host cores come from the CPU sockets"
                )
            if device.device_id in seen:
                raise ValueError(
                    f"duplicate device id {device.device_id!r}"
                )
            seen.add(device.device_id)

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cpu.cores

    def cpu_processor_ids(self, count: int = None) -> List[str]:
        """Names of usable CPU core resources."""
        count = self.total_cores if count is None else count
        if count > self.total_cores:
            raise ValueError(
                f"requested {count} cores but platform has {self.total_cores}"
            )
        return [f"cpu{i}" for i in range(count)]

    def gpu_processor_ids(self) -> List[str]:
        return [f"gpu{i}" for i in range(self.gpus)]

    # ------------------------------------------------------------------
    # Device inventory
    # ------------------------------------------------------------------
    def device_ids(self) -> List[str]:
        """Every processor id: CPU cores, GPUs, then extra devices."""
        return (self.cpu_processor_ids()
                + self.gpu_processor_ids()
                + [d.device_id for d in self.extra_devices])

    def device_kind(self, device_id: str) -> str:
        """The device-kind name behind a processor id."""
        return self.device(device_id).kind

    def device(self, device_id: str) -> DeviceSpec:
        """The :class:`DeviceSpec` behind a processor id.

        The one path from an id to a spec: ``cpuN`` is a host core,
        ``gpuN`` is :attr:`gpu` under that id, and extra devices are
        returned as registered.  Unknown ids raise a ``KeyError``
        naming the known inventory.
        """
        for device in self.extra_devices:
            if device.device_id == device_id:
                return device
        if device_id in self.cpu_processor_ids():
            return DeviceSpec(device_id=device_id, kind="cpu")
        if device_id in self.gpu_processor_ids():
            return self.gpu.with_id(device_id)
        raise KeyError(
            f"unknown device id {device_id!r}; platform devices: "
            f"{self.device_ids()}"
        )

    def devices(self) -> List[DeviceSpec]:
        """Materialized specs for every processor id."""
        return [self.device(device_id) for device_id in self.device_ids()]

    def offload_device_groups(self) -> Dict[str, List[str]]:
        """Offload-capable processor ids grouped by device kind.

        The partitioner assigns work to *groups* (one per kind) and
        the allocator round-robins instances within a group, mirroring
        how the binary path treats the GPU pool.
        """
        groups: Dict[str, List[str]] = {}
        if self.gpus > 0:
            groups["gpu"] = self.gpu_processor_ids()
        for device in self.extra_devices:
            groups.setdefault(device.kind, []).append(device.device_id)
        return groups

    def with_devices(self, *devices: DeviceSpec) -> "PlatformSpec":
        """A copy of the platform with extra offload devices appended."""
        return replace(self,
                       extra_devices=self.extra_devices + tuple(devices))

    def with_smartnic(self, device_id: str = "nic0",
                      **overrides) -> "PlatformSpec":
        """The platform plus a data-defined SmartNIC offload engine."""
        return self.with_devices(smartnic_device(device_id, **overrides))

    def without_devices(self, *device_ids: str) -> "PlatformSpec":
        """A copy of the platform with extra devices removed.

        The resilience layer uses this to shrink the inventory when a
        data-defined offload device fails.  Unknown ids raise the same
        structured ``KeyError`` as :meth:`device`; built-in CPU/GPU ids
        cannot be removed here (exclude GPUs by passing an explicit
        ``gpus=`` list to the allocator instead).
        """
        known = {d.device_id for d in self.extra_devices}
        for device_id in device_ids:
            if device_id in known:
                continue
            if device_id in self.device_ids():
                raise ValueError(
                    f"{device_id!r} is a built-in processor; only "
                    "extra devices can be removed from the inventory"
                )
            raise KeyError(
                f"unknown device id {device_id!r}; platform devices: "
                f"{self.device_ids()}"
            )
        drop = set(device_ids)
        return replace(self, extra_devices=tuple(
            d for d in self.extra_devices if d.device_id not in drop
        ))

    def describe_devices(self) -> str:
        """One line per device (the ``repro platform show`` payload)."""
        return "\n".join(device.describe() for device in self.devices())

    @classmethod
    def paper_testbed(cls) -> "PlatformSpec":
        """The Table I configuration (also the default)."""
        return cls()

    @classmethod
    def small(cls) -> "PlatformSpec":
        """A 1-socket, 1-GPU platform for quick tests."""
        return cls(sockets=1, gpus=1)
