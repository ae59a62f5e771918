"""NFCompass: the paper's contribution.

- :mod:`repro.core.actions` — the Table II/III packet-action
  dependency calculus (RAR/RAW/WAR/WAW over header/payload regions);
- :mod:`repro.core.orchestrator` — SFC-level parallelization into
  stages of independent NFs;
- :mod:`repro.core.merge` — traffic duplication and the XOR/OR merge
  of parallel branch outputs;
- :mod:`repro.core.synthesizer` — NF-level element-graph synthesis
  (I/O splicing, de-duplication, drop hoisting);
- :mod:`repro.core.expansion` — fine-grained virtual-instance
  expansion of offloadable elements (delta = 10 %);
- :mod:`repro.core.profiler` — runtime traffic statistics (per-node
  traffic shares);
- :mod:`repro.core.partition` — modified Kernighan-Lin and the
  lightweight agglomerative partitioning;
- :mod:`repro.core.allocator` — graph-partition-based task allocation
  producing processor mappings;
- :mod:`repro.core.compass` — the end-to-end runtime facade.
"""

from repro.core.actions import (
    Hazard,
    conflicting_write_fields,
    hazards_between,
    parallelizable,
)
from repro.core.orchestrator import SFCOrchestrator, ParallelPlan
from repro.core.merge import (
    MergeConflictError,
    OriginalSnapshot,
    XorMerge,
    xor_merge_packets,
)
from repro.core.synthesizer import NFSynthesizer, SynthesisReport
from repro.core.expansion import expand_graph, ExpandedGraph
from repro.core.partition import (
    kernighan_lin_partition,
    agglomerative_partition,
    PartitionResult,
)
from repro.core.allocator import GraphTaskAllocator
from repro.core.compass import NFCompass, CompassPlan
from repro.core.adaptation import AdaptiveRuntime, TrafficDescriptor
from repro.core.multi import MultiTenantScheduler, Tenant

__all__ = [
    "Hazard",
    "conflicting_write_fields",
    "hazards_between",
    "parallelizable",
    "SFCOrchestrator",
    "ParallelPlan",
    "MergeConflictError",
    "xor_merge_packets",
    "XorMerge",
    "OriginalSnapshot",
    "NFSynthesizer",
    "SynthesisReport",
    "expand_graph",
    "ExpandedGraph",
    "kernighan_lin_partition",
    "agglomerative_partition",
    "PartitionResult",
    "GraphTaskAllocator",
    "NFCompass",
    "CompassPlan",
    "AdaptiveRuntime",
    "TrafficDescriptor",
    "MultiTenantScheduler",
    "Tenant",
]
