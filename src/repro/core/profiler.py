"""Runtime traffic profiling (Section IV.C.2).

NFCompass weights the partition graph from two information sources:

- **offline profiling**: the processing rate of every element on each
  device.  The paper keeps a dictionary of profiled rates; here the
  rates are the platform cost model evaluated at the deploy's
  operating point (packet size, batch size, match profile), in
  :meth:`~repro.core.allocator.GraphTaskAllocator._attach_weights`;
- **runtime profiling**: the traffic distribution over the current
  graph — which fraction of packets traverses each edge and how much
  each element drops — measured by sampling real packets
  (:class:`~repro.sim.engine.BranchProfile`) and propagated to per-node
  shares here.
"""

from __future__ import annotations

from typing import Dict

from repro.elements.graph import ElementGraph
from repro.sim.engine import BranchProfile


def node_traffic_shares(graph: ElementGraph,
                        profile: BranchProfile) -> Dict[str, float]:
    """Fraction of offered traffic reaching each node.

    Propagates shares from the sources through the measured port
    fractions and drop fractions — the "time-dependent traffic
    intensities on each edge" of the paper's runtime profiling.
    """
    shares: Dict[str, float] = {node: 0.0 for node in graph.nodes}
    for source in graph.sources():
        shares[source] = 1.0
    for node_id in graph.topological_order():
        inflow = shares[node_id]
        if inflow <= 0:
            continue
        survivors = inflow * (1.0 - profile.drop_for(node_id))
        fractions = profile.fractions_for(graph, node_id)
        for port, fraction in fractions.items():
            for edge in graph.out_edges(node_id, port=port):
                shares[edge.dst] += survivors * fraction
    return shares
