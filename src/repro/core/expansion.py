"""Fine-grained element expansion for graph partitioning (Fig. 12).

A single offloadable element cannot carry one weight that represents
every possible offload ratio.  NFCompass therefore expands each
offloadable element into ``1/delta`` *virtual instances*, each owning a
``delta`` share of the element's traffic; the partitioner then assigns
instances to device groups individually, and the element's share on
each offload group falls out as the fraction of its instances placed
there.

Non-offloadable (or stateful) elements become a single instance pinned
to the CPU side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import networkx as nx

from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement

DEFAULT_DELTA = 0.1


@dataclass(frozen=True)
class VirtualInstance:
    """One partitionable slice of an element."""

    instance_id: str
    original_node: str
    share: float
    #: "cpu" pins the instance; None leaves the choice to the
    #: partitioner.
    pinned: Optional[str] = None


@dataclass
class ExpandedGraph:
    """The partitioning view of an element graph.

    ``pgraph`` is an undirected weighted graph over instance ids; node
    attributes are filled by the allocator (``cpu_time``,
    ``group_times``, ``pinned``, ``group``), edge attribute ``weight``
    is the communication cost of cutting the edge.
    """

    pgraph: nx.Graph
    instances: Dict[str, VirtualInstance]
    slices_per_node: Dict[str, List[str]]
    original: ElementGraph
    delta: float

    def group_shares(self, node_id: str,
                     groups: "Dict[str, set]") -> "Dict[str, float]":
        """Per-device-group fraction of ``node_id``'s slices.

        Given the partition's group -> instance-set assignment,
        returns the slice fraction landing in each group (groups with
        no slice of this node are omitted).
        """
        slices = self.slices_per_node[node_id]
        if not slices:
            return {}
        shares: Dict[str, float] = {}
        for group, members in groups.items():
            count = sum(1 for s in slices if s in members)
            if count:
                shares[group] = count / len(slices)
        return shares


def _is_expandable(graph: ElementGraph, node_id: str) -> bool:
    element = graph.element(node_id)
    return (isinstance(element, OffloadableElement)
            and element.offloadable
            and not element.is_stateful)


def expand_graph(graph: ElementGraph,
                 delta: float = DEFAULT_DELTA) -> ExpandedGraph:
    """Build the expanded partition graph for ``graph``.

    Edges between two expanded elements connect every slice pair with
    weight proportional to the product of their shares, preserving the
    original edge's total weight across the bipartite bundle.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    slice_count = max(1, round(1.0 / delta))
    pgraph = nx.Graph()
    instances: Dict[str, VirtualInstance] = {}
    slices_per_node: Dict[str, List[str]] = {}

    for node_id in graph.nodes:
        if _is_expandable(graph, node_id):
            share = 1.0 / slice_count
            ids = []
            for index in range(slice_count):
                instance_id = f"{node_id}#s{index}"
                instance = VirtualInstance(
                    instance_id=instance_id,
                    original_node=node_id,
                    share=share,
                )
                instances[instance_id] = instance
                pgraph.add_node(instance_id)
                ids.append(instance_id)
            slices_per_node[node_id] = ids
        else:
            instance = VirtualInstance(
                instance_id=node_id,
                original_node=node_id,
                share=1.0,
                pinned="cpu",
            )
            instances[node_id] = instance
            pgraph.add_node(node_id)
            slices_per_node[node_id] = [node_id]

    for edge in graph.edges:
        for src_slice in slices_per_node[edge.src]:
            for dst_slice in slices_per_node[edge.dst]:
                weight_share = (instances[src_slice].share
                                * instances[dst_slice].share)
                if pgraph.has_edge(src_slice, dst_slice):
                    pgraph[src_slice][dst_slice]["share"] += weight_share
                else:
                    pgraph.add_edge(src_slice, dst_slice,
                                    share=weight_share, weight=0.0)

    return ExpandedGraph(
        pgraph=pgraph,
        instances=instances,
        slices_per_node=slices_per_node,
        original=graph,
        delta=1.0 / slice_count,
    )
