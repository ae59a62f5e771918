"""Per-element cost model.

This module turns (element, batch statistics) into time:

- :meth:`CostModel.cpu_batch_seconds` — CPU service time for a batch,
  combining a per-element cycles/packet law, a payload-proportional
  term, the cache-pressure penalty of :mod:`repro.hw.cache`, and
  per-batch fixed overheads;
- :meth:`CostModel.gpu_batch_timing` — the Fig. 4 decomposition
  (launch, H2D, kernel, D2H) with batch-size-dependent utilization,
  warp-divergence penalties, and memory-bandwidth caps;
- re-organization costs: batch split/merge, packet duplication for
  parallel SFC branches, and the XOR merge.

The element-law constants live in :class:`CostParams`; the device
constants live on the :class:`~repro.hw.device.DeviceSpec` that
:meth:`CostModel.device_for` resolves from the platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro.elements.element import Element
from repro.elements.offload import OffloadableElement, OffloadTraits
from repro.hw.cache import cache_penalty_factor
from repro.hw.device import DeviceSpec
from repro.hw.gpu import GpuTiming
from repro.hw.platform import PlatformSpec
from repro.traffic.dpi_profiles import MatchProfile

#: Estimated L2..L4 header bytes per packet (Ethernet+IPv4+UDP).
HEADER_ESTIMATE_BYTES = 42.0


@dataclass(frozen=True)
class BatchStats:
    """Traffic statistics the cost laws consume."""

    batch_size: int
    mean_packet_bytes: float
    match_profile: MatchProfile = MatchProfile.PARTIAL_MATCH
    #: Distinct flows per batch; mixed-flow batches diverge more on GPU.
    distinct_flows: Optional[int] = None

    def __post_init__(self):
        if self.batch_size < 0:
            raise ValueError("batch size must be non-negative")
        if self.mean_packet_bytes < 0:
            raise ValueError("packet size must be non-negative")

    @property
    def payload_bytes(self) -> float:
        return max(0.0, self.mean_packet_bytes - HEADER_ESTIMATE_BYTES)

    @property
    def flow_mix(self) -> float:
        """Fraction of distinct flows in the batch, in [0, 1]."""
        if self.batch_size == 0:
            return 0.0
        flows = self.distinct_flows
        if flows is None:
            flows = max(1, self.batch_size // 4)
        return min(1.0, flows / self.batch_size)

    def with_batch_size(self, batch_size: int) -> "BatchStats":
        return replace(self, batch_size=batch_size)


@dataclass(frozen=True)
class CostParams:
    """Element-law calibration constants (see DESIGN.md section 5)."""

    # -- batching and re-organization -----------------------------------
    batch_fixed_cycles: float = 2200.0
    split_cycles_per_packet: float = 45.0
    merge_cycles_per_packet: float = 30.0
    duplicate_cycles_per_packet: float = 120.0
    duplicate_cycles_per_byte: float = 0.5
    xor_merge_cycles_per_byte: float = 1.2
    reassembly_cycles_per_packet: float = 70.0  # stateful buffering

    # -- DPI per-byte CPU cycles by match profile ------------------------
    dpi_cycles_per_byte_no_match: float = 4.0
    dpi_cycles_per_byte_partial: float = 10.0
    dpi_cycles_per_byte_full: float = 22.0

    # -- working-set touch factors (cache model inputs) -------------------
    dpi_touch_factor_full: float = 8.0
    dpi_touch_factor_partial: float = 4.0
    dpi_touch_factor_no_match: float = 1.5
    ipsec_touch_factor: float = 2.0
    default_touch_factor: float = 1.0


def _dpi_cycles_per_byte(params: CostParams, profile: MatchProfile) -> float:
    if profile is MatchProfile.NO_MATCH:
        return params.dpi_cycles_per_byte_no_match
    if profile is MatchProfile.FULL_MATCH:
        return params.dpi_cycles_per_byte_full
    return params.dpi_cycles_per_byte_partial


def _dpi_touch_factor(params: CostParams, profile: MatchProfile) -> float:
    if profile is MatchProfile.NO_MATCH:
        return params.dpi_touch_factor_no_match
    if profile is MatchProfile.FULL_MATCH:
        return params.dpi_touch_factor_full
    return params.dpi_touch_factor_partial


# ---------------------------------------------------------------------------
# Per-element cycles/packet laws.  Each law takes (stats, hints, params)
# and returns CPU cycles per packet on an unloaded core.
# ---------------------------------------------------------------------------

CycleLaw = Callable[[BatchStats, Dict[str, float], CostParams], float]


def _law_const(cycles: float) -> CycleLaw:
    return lambda stats, hints, params: cycles


def _law_ipv4(stats, hints, params):
    prefixes = max(2.0, hints.get("table_prefixes", 1024.0))
    return 140.0 + 22.0 * math.log2(prefixes)


def _law_ipv6(stats, hints, params):
    prefixes = max(2.0, hints.get("table_prefixes", 1024.0))
    # Binary search over ~8 prefix lengths, each probe a hash lookup.
    return 760.0 + 40.0 * math.log2(prefixes)


def _law_ipsec(stats, hints, params):
    return 600.0 + 15.0 * stats.payload_bytes


def _law_dpi(stats, hints, params):
    # Fixed per-packet costs (payload touch, automaton setup) dominate
    # small packets; per-byte DFA walking dominates large ones.
    per_byte = _dpi_cycles_per_byte(params, stats.match_profile)
    return 600.0 + per_byte * stats.payload_bytes


def _law_acl(stats, hints, params):
    tuples = hints.get("tuples")
    if tuples is not None:
        # One hash probe per distinct (src_len, dst_len) tuple.
        return 100.0 + 25.0 * tuples
    # Classification tree: logarithmic probe count; the cache penalty
    # of its linearly-growing footprint is applied by the working-set
    # model (see _element_footprint).
    return 200.0 + 40.0 * math.log2(max(2.0, hints.get("rules", 100.0)))


def _law_classifier(stats, hints, params):
    return 50.0 + 12.0 * hints.get("rules", 1.0)


def _law_tee(stats, hints, params):
    return 45.0 + 0.3 * stats.mean_packet_bytes


def _law_content_rewrite(stats, hints, params):
    return 100.0 + 2.5 * stats.payload_bytes


def _law_dedup(stats, hints, params):
    return 400.0 + 9.0 * stats.payload_bytes


def _law_stateful_dpi(stats, hints, params):
    # The stateless DPI law plus per-packet flow-table lookup and
    # in-order release bookkeeping.
    return _law_dpi(stats, hints, params) + 180.0


def _law_xor_merge(stats, hints, params):
    # The merge scans every duplicate copy once; the engine already
    # feeds the element the duplicated token mass (branch_count copies
    # per logical packet), so the law is per copied packet.
    return (80.0 + params.xor_merge_cycles_per_byte
            * stats.mean_packet_bytes)


def _law_snapshot(stats, hints, params):
    return 40.0 + 0.4 * stats.mean_packet_bytes


_CPU_LAWS: Dict[str, CycleLaw] = {
    "FromDevice": _law_const(120.0),
    "ToDevice": _law_const(130.0),
    "Discard": _law_const(15.0),
    "CheckIPHeader": _law_const(60.0),
    "DecIPTTL": _law_const(35.0),
    "Counter": _law_const(25.0),
    "Queue": _law_const(30.0),
    "Paint": _law_const(20.0),
    "PaintSwitch": _law_const(40.0),
    "StripEther": _law_const(25.0),
    "EtherEncap": _law_const(40.0),
    "HashSwitch": _law_const(90.0),
    "Classifier": _law_classifier,
    "Tee": _law_tee,
    "IPv4Lookup": _law_ipv4,
    "IPv6Lookup": _law_ipv6,
    "IPsecEncrypt": _law_ipsec,
    "IPsecDecrypt": _law_ipsec,
    "PatternMatch": _law_dpi,
    "StatefulPatternMatch": _law_stateful_dpi,
    "MatchVerdict": _law_const(40.0),
    "AclClassify": _law_acl,
    "NatRewrite": _law_const(260.0),
    "BackendSelect": _law_const(210.0),
    "ContentRewrite": _law_content_rewrite,
    "DedupCompress": _law_dedup,
    "XorMerge": _law_xor_merge,
    "OriginalSnapshot": _law_snapshot,
}

_DEFAULT_LAW: CycleLaw = _law_const(100.0)


# ---------------------------------------------------------------------------
# Element data footprints (cache model inputs), bytes.
# ---------------------------------------------------------------------------

def _element_footprint(element: Element) -> float:
    hints = element.cost_hints()
    kind = element.kind
    if kind in ("IPv4Lookup",):
        return 24.0 * hints.get("table_prefixes", 1024.0)
    if kind in ("IPv6Lookup",):
        return 40.0 * hints.get("table_prefixes", 1024.0)
    if kind in ("PatternMatch", "StatefulPatternMatch"):
        footprint = 96.0 * hints.get("ac_states", 512.0)
        if kind == "StatefulPatternMatch":
            footprint += 512.0 * 1024.0  # hot slice of the flow table
        return footprint
    if kind == "AclClassify":
        if hints.get("tree"):
            # Decision-tree nodes with replicated rules: footprint
            # grows much faster than the raw rule list.
            return 4000.0 * hints.get("rules", 100.0)
        return 48.0 * hints.get("rules", 100.0)
    return 4096.0  # code + small state


def _touch_factor(element: Element, stats: BatchStats,
                  params: CostParams) -> float:
    kind = element.kind
    if kind == "PatternMatch":
        return _dpi_touch_factor(params, stats.match_profile)
    if kind in ("IPsecEncrypt", "IPsecDecrypt"):
        return params.ipsec_touch_factor
    return params.default_touch_factor


class CostModel:
    """Time model for elements on the modelled platform."""

    def __init__(self, platform: Optional[PlatformSpec] = None,
                 params: Optional[CostParams] = None):
        self.platform = platform or PlatformSpec()
        self.params = params or CostParams()
        self._device_cache: Dict[str, DeviceSpec] = {}

    # ------------------------------------------------------------------
    # CPU
    # ------------------------------------------------------------------
    def cpu_packet_cycles(self, element: Element,
                          stats: BatchStats) -> float:
        """Cycles per packet on an unloaded core, before cache effects."""
        law = _CPU_LAWS.get(element.kind, _DEFAULT_LAW)
        return law(stats, element.cost_hints(), self.params)

    def element_footprint_bytes(self, element: Element) -> float:
        """The element's own table/state footprint."""
        return _element_footprint(element)

    def working_set_bytes(self, element: Element,
                          stats: BatchStats) -> float:
        """Bytes touched while processing one batch."""
        packet_data = (stats.batch_size * stats.mean_packet_bytes
                       * _touch_factor(element, stats, self.params))
        return packet_data + self.element_footprint_bytes(element)

    def cpu_batch_seconds(self, element: Element, stats: BatchStats,
                          co_run_pressure_bytes: float = 0.0) -> float:
        """CPU service time for one batch at ``element``."""
        if stats.batch_size == 0:
            return 0.0
        cycles_per_packet = self.cpu_packet_cycles(element, stats)
        penalty = cache_penalty_factor(
            self.working_set_bytes(element, stats),
            self.platform.cpu,
            co_run_pressure_bytes=co_run_pressure_bytes,
        )
        total_cycles = (self.params.batch_fixed_cycles
                        + stats.batch_size * cycles_per_packet * penalty)
        return self.platform.cpu.cycles_to_seconds(total_cycles)

    # ------------------------------------------------------------------
    # Offload devices (GPU, SmartNIC, any registered kind)
    # ------------------------------------------------------------------
    def device_for(self, device_id: str) -> DeviceSpec:
        """The platform's :class:`DeviceSpec` for a processor id
        (:meth:`PlatformSpec.device`), cached per model."""
        spec = self._device_cache.get(device_id)
        if spec is None:
            spec = self._device_cache[device_id] = \
                self.platform.device(device_id)
        return spec

    def _device_speedup(self, device: DeviceSpec, traits: OffloadTraits,
                        stats: BatchStats) -> float:
        speedup = (device.base_speedup
                   + device.intensity_gain
                   * math.log2(1.0 + traits.compute_intensity))
        if traits.divergent:
            divergence = 1.0 + (device.divergence_penalty - 1.0) \
                * stats.flow_mix
            speedup /= divergence
        return max(1.0, speedup)

    def gpu_batch_timing(self, element: Element, stats: BatchStats,
                         persistent_kernel: bool = True,
                         co_running_kernels: int = 0) -> GpuTiming:
        """The Fig. 4 time decomposition for one batch on
        :attr:`PlatformSpec.gpu`."""
        return self.device_batch_timing(
            element, stats, self.platform.gpu,
            persistent_kernel=persistent_kernel,
            co_running_kernels=co_running_kernels,
        )

    def device_batch_timing(self, element: Element, stats: BatchStats,
                            device: DeviceSpec,
                            persistent_kernel: bool = True,
                            co_running_kernels: int = 0) -> GpuTiming:
        """Fig. 4 decomposition for one batch on any offload device.

        The generic law parameterized by the device's cost hooks; for
        a GPU spec it is term-for-term the model the binary pipeline
        always used (the golden parity tests pin this).
        """
        if not isinstance(element, OffloadableElement):
            raise TypeError(f"{element.name} is not offloadable")
        if stats.batch_size == 0:
            return GpuTiming(0.0, 0.0, 0.0, 0.0)
        traits = element.traits

        launch = (device.persistent_dispatch_seconds if persistent_kernel
                  else device.launch_seconds)
        launch *= 1.0 + device.corun_launch_inflation * co_running_kernels

        link = device.link
        h2d = d2h = 0.0
        if link is not None:
            h2d_bytes = self._transfer_bytes(traits.h2d_bytes_per_packet,
                                             traits.relative, stats)
            d2h_bytes = self._transfer_bytes(traits.d2h_bytes_per_packet,
                                             traits.relative, stats)
            h2d = link.transfer_seconds(h2d_bytes,
                                        packet_count=stats.batch_size)
            d2h = link.transfer_seconds(d2h_bytes,
                                        packet_count=stats.batch_size)

        cycles_per_packet = self.cpu_packet_cycles(element, stats)
        per_packet_seconds = self.platform.cpu.cycles_to_seconds(
            cycles_per_packet
        )
        speedup = self._device_speedup(device, traits, stats)
        utilization = device.utilization(stats.batch_size)
        kernel = (stats.batch_size * per_packet_seconds
                  / (speedup * utilization))

        # Lookup tables that spill the device cache make every probe an
        # uncoalesced device-DRAM access.
        footprint = self.element_footprint_bytes(element)
        if footprint > device.cache_bytes:
            doublings = min(3.0, math.log2(footprint / device.cache_bytes))
            kernel *= 1.0 + device.table_spill_penalty * doublings

        # Memory-bandwidth floor: data touched by the kernel must stream
        # from device DRAM at least once (inf bandwidth disables it).
        touched = (stats.batch_size * stats.mean_packet_bytes
                   * _touch_factor(element, stats, self.params)
                   * device.mem_traffic_factor)
        kernel = max(kernel, touched / device.memory_bandwidth_bps)

        return GpuTiming(launch=launch, h2d=h2d, kernel=kernel, d2h=d2h)

    @staticmethod
    def _transfer_bytes(per_packet: float, relative: bool,
                        stats: BatchStats) -> float:
        unit = stats.mean_packet_bytes * per_packet if relative else per_packet
        return unit * stats.batch_size

    # ------------------------------------------------------------------
    # Re-organization costs
    # ------------------------------------------------------------------
    def split_seconds(self, packets_moved: int) -> float:
        """Batch re-organization at a branch (Fig. 5 overhead)."""
        cycles = (self.params.batch_fixed_cycles * 0.5
                  + self.params.split_cycles_per_packet * packets_moved)
        return self.platform.cpu.cycles_to_seconds(cycles)

    def merge_seconds(self, packets_merged: int) -> float:
        cycles = self.params.merge_cycles_per_packet * packets_merged
        return self.platform.cpu.cycles_to_seconds(cycles)

    def duplicate_seconds(self, packet_count: int,
                          total_bytes: float) -> float:
        """Copying packets to parallel SFC branches (Section IV.B.1)."""
        cycles = (self.params.duplicate_cycles_per_packet * packet_count
                  + self.params.duplicate_cycles_per_byte * total_bytes)
        return self.platform.cpu.cycles_to_seconds(cycles)

    def reassembly_seconds(self, packet_count: int) -> float:
        """Stateful in-order release buffering."""
        cycles = self.params.reassembly_cycles_per_packet * packet_count
        return self.platform.cpu.cycles_to_seconds(cycles)
