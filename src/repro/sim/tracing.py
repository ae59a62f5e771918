"""Execution tracing for the simulation engine.

An :class:`EventRecorder` passed to
:meth:`~repro.sim.engine.SimulationEngine.run` captures one event per
(batch, node) visit — ready time, completion time, token size — plus a
per-batch summary.  Useful for debugging schedules ("why is this
deployment slow?"), for visualizing pipelines, and for regression
baselines; events export to plain dicts/JSON.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class NodeEvent:
    """One node servicing one batch token."""

    batch_index: int
    node_id: str
    ready: float
    completion: float
    packets: float

    @property
    def span(self) -> float:
        return self.completion - self.ready


@dataclass(frozen=True)
class BatchEvent:
    """One batch's end-to-end journey."""

    batch_index: int
    arrival: float
    completion: float
    delivered_packets: float

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


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

    def node_spans(self) -> Dict[str, float]:
        """Total (ready -> completion) span per node across batches."""
        spans: Dict[str, float] = {}
        for event in self.node_events:
            spans[event.node_id] = spans.get(event.node_id, 0.0) \
                + event.span
        return spans

    def bottleneck_node(self) -> Optional[str]:
        """The node with the largest accumulated span."""
        spans = self.node_spans()
        if not spans:
            return None
        return max(spans, key=spans.get)

    def critical_path(self, batch_index: int) -> List[NodeEvent]:
        """The batch's node events ordered by completion time."""
        return sorted(self.events_for_batch(batch_index),
                      key=lambda e: e.completion)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, list]:
        return {
            "node_events": [asdict(e) for e in self.node_events],
            "batch_events": [asdict(e) for e in self.batch_events],
            "requeue_events": [asdict(e) for e in self.requeue_events],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, list]) -> "EventRecorder":
        """Rebuild a recorder from :meth:`to_dict` output.

        Unknown keys are rejected by the event constructors, so a
        schema drift between writer and reader fails loudly instead of
        silently dropping fields.
        """
        recorder = cls()
        recorder.node_events = [NodeEvent(**e)
                                for e in data.get("node_events", [])]
        recorder.batch_events = [BatchEvent(**e)
                                 for e in data.get("batch_events", [])]
        recorder.requeue_events = [RequeueEvent(**e)
                                   for e in data.get("requeue_events",
                                                     [])]
        return recorder

    @classmethod
    def from_json(cls, text: str) -> "EventRecorder":
        """Rebuild a recorder from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def summary(self, top: int = 5) -> str:
        """Human-readable digest: slowest nodes and batch latencies."""
        lines = [f"trace: {len(self.node_events)} node events over "
                 f"{len(self.batch_events)} batches"]
        spans = sorted(self.node_spans().items(), key=lambda kv: -kv[1])
        for node_id, span in spans[:top]:
            lines.append(f"  {node_id}: {span * 1e6:.1f} us total span")
        if self.batch_events:
            latencies = [e.latency for e in self.batch_events]
            lines.append(
                f"  batch latency: min {min(latencies) * 1e6:.1f} us, "
                f"max {max(latencies) * 1e6:.1f} us"
            )
        return "\n".join(lines)
