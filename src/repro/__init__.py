"""NFCompass reproduction.

A simulation-based, laptop-scale reproduction of *Enabling Efficient
Network Service Function Chain Deployment on Heterogeneous Server
Platform* (HPCA 2018).  The package provides:

- :mod:`repro.net` — packet, batch, and flow substrate;
- :mod:`repro.traffic` — seeded workload generators (IMIX, ACLs, DPI
  payload profiles);
- :mod:`repro.elements` — a Click-like packet-processing element
  framework with offloadable elements;
- :mod:`repro.nf` — functional network functions (forwarders, IPsec,
  DPI, firewall, NAT, ...);
- :mod:`repro.hw` — an analytical CPU/GPU/PCIe performance model;
- :mod:`repro.sim` — a batch-level discrete-event execution engine;
- :mod:`repro.core` — NFCompass itself: SFC parallelization, NF
  synthesis, and graph-partition-based task allocation;
- :mod:`repro.baselines` — FastClick/NBA/CPU-only/GPU-only baselines;
- :mod:`repro.experiments` — one harness per paper table/figure;
- :mod:`repro.faults` — fault injection and degradation-aware
  re-deployment (:class:`ResilientRuntime`);
- :mod:`repro.overload` — overload protection: bounded queues with
  pluggable drop policies, SLO-aware admission control, and
  circuit-broken offload dispatch (:class:`OverloadConfig`).

Every epoch-driven loop — :class:`AdaptiveRuntime`,
:class:`MultiTenantScheduler`, :class:`ResilientRuntime` — implements
the :class:`Runtime` protocol (``step``/``plan``/``session``).
"""

from repro.core.adaptation import AdaptiveRuntime
from repro.core.compass import CompassPlan, DeploymentResult, NFCompass
from repro.core.multi import MultiTenantScheduler
from repro.core.orchestrator import SFCOrchestrator
from repro.core.runtime import EpochResult, Runtime
from repro.core.synthesizer import NFSynthesizer
from repro.core.allocator import GraphTaskAllocator
from repro.faults import FaultSpec, FaultTimeline, ResilientRuntime
from repro.nf.catalog import NF_CATALOG, make_nf
from repro.hw.platform import PlatformSpec
from repro.obs import Trace, use_trace
from repro.overload import (
    CircuitBreaker,
    OverloadConfig,
    RetryPolicy,
    SLOFeedbackAdmission,
    TokenBucketAdmission,
)
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import SimulationSession
from repro.sim.metrics import ThroughputLatencyReport

__version__ = "1.6.0"

# Imported after __version__: the runner's fingerprints fold the
# package version into every cache key.
from repro.runner import (  # noqa: E402
    ResultCache,
    SweepRunner,
    SweepSpec,
    deployment_fingerprint,
    run_sweep,
)

__all__ = [
    "AdaptiveRuntime",
    "CircuitBreaker",
    "CompassPlan",
    "DeploymentResult",
    "EpochResult",
    "FaultSpec",
    "FaultTimeline",
    "GraphTaskAllocator",
    "MultiTenantScheduler",
    "NFCompass",
    "NFSynthesizer",
    "NF_CATALOG",
    "OverloadConfig",
    "PlatformSpec",
    "ResilientRuntime",
    "ResultCache",
    "RetryPolicy",
    "Runtime",
    "SFCOrchestrator",
    "SLOFeedbackAdmission",
    "SimulationEngine",
    "SimulationSession",
    "SweepRunner",
    "SweepSpec",
    "ThroughputLatencyReport",
    "TokenBucketAdmission",
    "Trace",
    "deployment_fingerprint",
    "make_nf",
    "run_sweep",
    "use_trace",
    "__version__",
]
