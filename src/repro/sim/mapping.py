"""Deployments: element graphs mapped onto processors.

A :class:`Placement` assigns one element a *share vector* over device
ids: each entry is the fraction of every batch serviced on that
device.  The paper's binary special case — a CPU core plus a
ratio-split GPU — is the two-entry vector, built by
:meth:`Placement.split`.  A :class:`Mapping` assigns every node of a
graph; a :class:`Deployment` bundles graph + mapping + execution
options and is what the :class:`~repro.sim.engine.SimulationEngine`
runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping as MappingABC, Optional

from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement
from repro.hw.device import DEFAULT_HOST_DEVICE

#: Share vectors must sum to 1 within this tolerance (float fractions
#: like 0.1 + 0.2 + 0.7 do not sum exactly).
_SHARE_SUM_TOLERANCE = 1e-9


class Placement:
    """Where one element runs: per-device batch-share fractions.

    ``shares`` maps device ids to the fraction of each batch serviced
    there; fractions sum to 1.  ``host`` is the CPU core that owns the
    element's batch bookkeeping (merges, splits, reassembly) even when
    the whole batch is offloaded — the completion-handling core of the
    paper's GPU-only placements.

    :meth:`split` builds the binary vector::

        Placement.split("cpu3", "gpu0", 0.3)
        # == Placement(shares={"cpu3": 0.7, "gpu0": 0.3}, host="cpu3")
    """

    __slots__ = ("_shares", "_host")

    def __init__(self, *, shares: MappingABC,
                 host: Optional[str] = None):
        vector = dict(shares)
        total = 0.0
        for device_id, fraction in list(vector.items()):
            if not isinstance(device_id, str) or not device_id:
                raise ValueError(
                    f"share keys must be device ids, got {device_id!r}"
                )
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(
                    f"share for {device_id!r} must be in [0, 1], "
                    f"got {fraction!r}"
                )
            if fraction == 0.0:
                del vector[device_id]
                continue
            total += fraction
        if not vector:
            raise ValueError("placement needs at least one device share")
        if abs(total - 1.0) > _SHARE_SUM_TOLERANCE:
            raise ValueError(
                f"device shares must sum to 1, got {total!r} "
                f"over {sorted(vector)}"
            )
        if host is None:
            host = next(
                (d for d in vector if d.startswith("cpu")),
                DEFAULT_HOST_DEVICE,
            )
        self._shares = vector
        self._host = host

    # -- device-neutral API --------------------------------------------
    @property
    def shares(self) -> Dict[str, float]:
        """Device id -> batch fraction (a copy; insertion-ordered)."""
        return dict(self._shares)

    @property
    def host(self) -> str:
        """The CPU core owning batch bookkeeping for this element."""
        return self._host

    @property
    def host_share(self) -> float:
        """Fraction of each batch serviced on the host core."""
        return self._shares.get(self._host, 0.0)

    @property
    def offload_shares(self) -> Dict[str, float]:
        """Shares on non-host devices, placement order."""
        return {device: fraction
                for device, fraction in self._shares.items()
                if device != self._host}

    @property
    def offload_total(self) -> float:
        """Total fraction serviced off the host core."""
        return sum(self.offload_shares.values())

    @property
    def offloaded(self) -> bool:
        return any(device != self._host for device in self._shares)

    @property
    def fully_offloaded(self) -> bool:
        return self._host not in self._shares

    def devices_used(self) -> List[str]:
        """Devices with a positive share, placement order."""
        return list(self._shares)

    def share_of(self, device_id: str) -> float:
        return self._shares.get(device_id, 0.0)

    @classmethod
    def on(cls, device_id: str,
           host: Optional[str] = None) -> "Placement":
        """The whole batch on one device."""
        return cls(shares={device_id: 1.0}, host=host)

    @classmethod
    def split(cls, host: str, device: Optional[str] = None,
              ratio: float = 0.0) -> "Placement":
        """Binary host/device split: ``ratio`` of each batch offloaded.

        The paper's CPU-core-plus-ratio-split-GPU placement;
        ``ratio=0`` pins the element to ``host``, ``ratio=1`` is the
        fully offloaded case with ``host`` keeping the bookkeeping.
        """
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("offload ratio must be in [0, 1]")
        if ratio > 0.0 and device is None:
            raise ValueError("offloaded placement needs a device")
        if host is None:
            raise ValueError("split placement needs a host core")
        self = cls.__new__(cls)
        vector: Dict[str, float] = {}
        if ratio < 1.0:
            vector[host] = 1.0 - ratio
        if ratio > 0.0:
            vector[device] = ratio
        self._shares = vector
        self._host = host
        return self

    # -- value semantics (the old frozen dataclass behaviour) ----------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return (self._shares == other._shares
                and self._host == other._host)

    def __hash__(self) -> int:
        return hash((self._host, tuple(sorted(self._shares.items()))))

    def __repr__(self) -> str:
        return (f"Placement(shares={self._shares!r}, "
                f"host={self._host!r})")


class Mapping:
    """Node-id -> Placement assignment for one graph."""

    def __init__(self, placements: Optional[Dict[str, Placement]] = None):
        self._placements: Dict[str, Placement] = dict(placements or {})

    def __getitem__(self, node_id: str) -> Placement:
        return self._placements[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._placements

    def get(self, node_id: str,
            default: Optional[Placement] = None) -> Optional[Placement]:
        return self._placements.get(node_id, default)

    def set(self, node_id: str, placement: Placement) -> None:
        self._placements[node_id] = placement

    def items(self):
        return self._placements.items()

    def processors_used(self) -> List[str]:
        used = set()
        for placement in self._placements.values():
            used.update(placement.devices_used())
        return sorted(used)

    def validate_against(self, graph: ElementGraph) -> None:
        missing = [n for n in graph.nodes if n not in self._placements]
        if missing:
            raise ValueError(f"mapping misses nodes: {missing}")
        for node_id, placement in self._placements.items():
            if node_id not in graph:
                raise ValueError(f"mapping covers unknown node {node_id!r}")
            element = graph.element(node_id)
            if placement.offloaded and not isinstance(element,
                                                      OffloadableElement):
                raise ValueError(
                    f"{node_id} ({element.kind}) is not offloadable"
                )
            if placement.offloaded and not element.offloadable:
                raise ValueError(
                    f"{node_id} ({element.kind}) declares itself "
                    "non-offloadable (stateful)"
                )

    # ------------------------------------------------------------------
    # Canned mapping policies
    # ------------------------------------------------------------------
    @classmethod
    def all_cpu(cls, graph: ElementGraph,
                cores: Iterable[str] = (DEFAULT_HOST_DEVICE,)
                ) -> "Mapping":
        """Round-robin elements over CPU cores, no offloading."""
        cores = list(cores)
        rr = itertools.cycle(cores)
        return cls({
            node: Placement.split(next(rr))
            for node in graph.topological_order()
        })

    @classmethod
    def fixed_ratio(cls, graph: ElementGraph, ratio: float,
                    cores: Iterable[str] = (DEFAULT_HOST_DEVICE,),
                    gpus: Iterable[str] = ("gpu0",)) -> "Mapping":
        """Offload every offloadable element at one global ratio.

        The one-size-fits-all policy the paper's characterization warns
        about; ``ratio=1.0`` is the GPU-only baseline.
        """
        cores = list(cores)
        gpus = list(gpus)
        rr_core = itertools.cycle(cores)
        rr_gpu = itertools.cycle(gpus)
        placements = {}
        for node in graph.topological_order():
            element = graph.element(node)
            if (isinstance(element, OffloadableElement)
                    and element.offloadable and ratio > 0.0):
                placements[node] = Placement.split(
                    next(rr_core), next(rr_gpu), ratio
                )
            else:
                placements[node] = Placement.split(next(rr_core))
        return cls(placements)

    @classmethod
    def all_gpu(cls, graph: ElementGraph,
                cores: Iterable[str] = (DEFAULT_HOST_DEVICE,),
                gpus: Iterable[str] = ("gpu0",)) -> "Mapping":
        """Offload every offloadable element fully."""
        return cls.fixed_ratio(graph, 1.0, cores=cores, gpus=gpus)


@dataclass
class Deployment:
    """A runnable unit: graph + mapping + execution options."""

    graph: ElementGraph
    mapping: Mapping
    #: Whether the GPU code uses NFCompass's persistent-kernel design
    #: (cheap dispatch) or per-batch kernel launch/teardown.
    persistent_kernel: bool = False
    #: Whether stateful in-order release buffering is required
    #: (charged per batch at offloaded elements).
    stateful_reassembly: bool = False
    name: str = "deployment"

    def validate(self) -> None:
        self.graph.validate()
        self.mapping.validate_against(self.graph)
