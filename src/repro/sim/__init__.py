"""Batch-level discrete-event execution engine.

Executes a *deployment* — an element graph plus a mapping of elements
to processors (CPU cores, GPUs, with per-element offload ratios) — on
the modelled platform, producing the quantities the paper plots:
throughput (Gbps / Mpps), latency distributions, and an overhead
breakdown (compute, PCIe transfers, kernel launches, batch splits and
merges, duplication and XOR-merging for parallel SFC branches).
"""

from repro.sim.mapping import Placement, Mapping, Deployment
from repro.sim.metrics import OverheadBreakdown, ThroughputLatencyReport
from repro.sim.kernel import ResourceTimeline, SimulationSession
from repro.sim.engine import SimulationEngine, BranchProfile
from repro.sim.tracing import (
    EventRecorder,
    NodeEvent,
    BatchEvent,
    RequeueEvent,
)

__all__ = [
    "Placement",
    "Mapping",
    "Deployment",
    "ThroughputLatencyReport",
    "OverheadBreakdown",
    "ResourceTimeline",
    "SimulationSession",
    "SimulationEngine",
    "BranchProfile",
    "EventRecorder",
    "NodeEvent",
    "BatchEvent",
    "RequeueEvent",
]
