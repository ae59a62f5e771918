"""Offloadable elements.

The paper's offloading model (Section II.B.1, Fig. 3/4) runs
pre-processing, host-to-device copy, kernel execution, device-to-host
copy, and post-processing for each offloaded batch.  Functionally the
GPU-side computation is identical to the CPU-side one; what differs is
*cost* (modelled in :mod:`repro.hw`).  An :class:`OffloadableElement`
therefore runs the same :meth:`process` wherever it is placed and
carries the metadata (per-packet transfer sizes, divergence behaviour)
the cost model consumes.  Partial offload is a placement decision: the
allocator splits an element's batches across devices as
:class:`~repro.sim.mapping.Placement` shares, and the event kernel
prices each share.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.elements.element import Element


@dataclass(frozen=True)
class OffloadTraits:
    """Cost-model metadata for an offloadable element.

    - ``h2d_bytes_per_packet`` / ``d2h_bytes_per_packet``: how much of
      each packet must cross PCIe in each direction (e.g. IPsec copies
      whole payloads; an IPv4 lookup only copies destination
      addresses).  Values are *fractions of the packet wire length*
      when ``relative`` is True, absolute byte counts otherwise.
    - ``divergent``: whether the kernel's control flow diverges per
      packet (pattern matching does; table lookup mostly does not).
    - ``compute_intensity``: relative ALU work per byte, used to scale
      the GPU service rate.
    """

    h2d_bytes_per_packet: float = 1.0
    d2h_bytes_per_packet: float = 1.0
    relative: bool = True
    divergent: bool = False
    compute_intensity: float = 1.0


class OffloadableElement(Element):
    """An element the allocator may place, wholly or in part, on an
    offload device."""

    offloadable = True
    traits = OffloadTraits()
