"""Execution tracing for the simulation engine.

An :class:`EventRecorder` passed to
:meth:`~repro.sim.kernel.SimulationSession.run` captures one event per
(batch, node) visit — ready time, completion time, token size — plus
one event per batch and per re-queued offload share.  ``repro
validate`` checks engine invariants on these events
(:class:`~repro.validate.invariants.ValidatingRecorder`), and the
golden parity suite compares recorders by their JSON export.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class NodeEvent:
    """One node servicing one batch token."""

    batch_index: int
    node_id: str
    ready: float
    completion: float
    packets: float


@dataclass(frozen=True)
class BatchEvent:
    """One batch's end-to-end journey."""

    batch_index: int
    arrival: float
    completion: float
    delivered_packets: float


#: The causes a :class:`RequeueEvent` may carry.
REQUEUE_CAUSES = ("fault_crash", "breaker_open", "retry_exhausted")


@dataclass(frozen=True)
class RequeueEvent:
    """One offload-leg share re-queued to the host, with its cause.

    ``cause`` distinguishes *why* the device was bypassed:
    ``fault_crash`` (the crash window intersected the dispatch, the
    pre-overload behaviour), ``breaker_open`` (the circuit breaker
    fenced the device before any timeout was paid), or
    ``retry_exhausted`` (the retry budget ran out after repeated
    timeouts) — so chaos regressions can tell fault re-queues from
    overload retries.
    """

    batch_index: int
    node_id: str
    device_id: str
    cause: str
    ready: float
    packets: float


@dataclass
class EventRecorder:
    """Collects node and batch events during a simulation run."""

    node_events: List[NodeEvent] = field(default_factory=list)
    batch_events: List[BatchEvent] = field(default_factory=list)
    requeue_events: List[RequeueEvent] = field(default_factory=list)

    def record_node(self, batch_index: int, node_id: str, ready: float,
                    completion: float, packets: float) -> None:
        self.node_events.append(NodeEvent(
            batch_index=batch_index, node_id=node_id, ready=ready,
            completion=completion, packets=packets,
        ))

    def record_batch(self, batch_index: int, arrival: float,
                     completion: float, delivered: float) -> None:
        self.batch_events.append(BatchEvent(
            batch_index=batch_index, arrival=arrival,
            completion=completion, delivered_packets=delivered,
        ))

    def record_requeue(self, batch_index: int, node_id: str,
                       device_id: str, cause: str, ready: float,
                       packets: float) -> None:
        if cause not in REQUEUE_CAUSES:
            raise ValueError(
                f"unknown requeue cause {cause!r}; expected one of "
                f"{list(REQUEUE_CAUSES)}"
            )
        self.requeue_events.append(RequeueEvent(
            batch_index=batch_index, node_id=node_id,
            device_id=device_id, cause=cause, ready=ready,
            packets=packets,
        ))

    # ------------------------------------------------------------------
    def events_for_batch(self, batch_index: int) -> List[NodeEvent]:
        return [e for e in self.node_events
                if e.batch_index == batch_index]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, list]:
        return {
            "node_events": [asdict(e) for e in self.node_events],
            "batch_events": [asdict(e) for e in self.batch_events],
            "requeue_events": [asdict(e) for e in self.requeue_events],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())
