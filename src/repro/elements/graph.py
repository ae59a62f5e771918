"""Element graphs (Click configurations as DAGs).

:class:`ElementGraph` is the central data structure of the
reproduction: NFs are element graphs, SFCs are concatenations of
element graphs, the NF synthesizer rewrites them, and the task
allocator partitions them.

The graph supports *functional execution* (:meth:`run_batch`): a batch
is pushed through topological order with classifier splits, Tee
duplication, and join-point merging — so every NFCompass rewrite can
be checked for behaviour preservation against real packets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.elements.element import Element, TrafficClass
from repro.net.batch import PacketBatch

_graph_ids = itertools.count()


@dataclass(frozen=True)
class Edge:
    """A directed connection between element ports."""

    src: str
    dst: str
    src_port: int = 0
    dst_port: int = 0


class GraphValidationError(ValueError):
    """Raised when an element graph violates structural invariants."""


class ElementGraph:
    """A DAG of named elements with port-annotated edges."""

    def __init__(self, name: Optional[str] = None):
        self.name = name or f"graph@{next(_graph_ids)}"
        self._elements: Dict[str, Element] = {}
        self._edges: List[Edge] = []
        # Per-edge live-packet counts filled by run_batch (profiler input).
        self.edge_packet_counts: Dict[Edge, int] = {}
        self.total_split_ops = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, element: Element, node_id: Optional[str] = None) -> str:
        """Add an element; return its node id (defaults to element name)."""
        node_id = node_id or element.name
        if node_id in self._elements:
            raise GraphValidationError(f"duplicate node id {node_id!r}")
        self._elements[node_id] = element
        return node_id

    def connect(self, src: str, dst: str,
                src_port: int = 0, dst_port: int = 0) -> Edge:
        """Connect ``src`` output port to ``dst`` input port."""
        for node in (src, dst):
            if node not in self._elements:
                raise GraphValidationError(f"unknown node {node!r}")
        if src_port >= self._elements[src].ports.outputs:
            raise GraphValidationError(
                f"{src} has no output port {src_port}"
            )
        if dst_port >= self._elements[dst].ports.inputs:
            raise GraphValidationError(
                f"{dst} has no input port {dst_port}"
            )
        edge = Edge(src, dst, src_port, dst_port)
        if edge in self._edges:
            raise GraphValidationError(f"duplicate edge {edge}")
        self._edges.append(edge)
        return edge

    def chain(self, *elements: Element) -> List[str]:
        """Add elements and connect them in a linear pipeline."""
        node_ids = [self.add(element) for element in elements]
        for src, dst in zip(node_ids, node_ids[1:]):
            self.connect(src, dst)
        return node_ids

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._elements

    @property
    def nodes(self) -> List[str]:
        return list(self._elements)

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    def element(self, node_id: str) -> Element:
        return self._elements[node_id]

    def elements(self) -> Dict[str, Element]:
        return dict(self._elements)

    def out_edges(self, node_id: str, port: Optional[int] = None) -> List[Edge]:
        return [e for e in self._edges
                if e.src == node_id and (port is None or e.src_port == port)]

    def in_edges(self, node_id: str) -> List[Edge]:
        return [e for e in self._edges if e.dst == node_id]

    def successors(self, node_id: str) -> List[str]:
        return [e.dst for e in self.out_edges(node_id)]

    def predecessors(self, node_id: str) -> List[str]:
        return [e.src for e in self.in_edges(node_id)]

    def sources(self) -> List[str]:
        """Nodes with no incoming edges."""
        targets = {e.dst for e in self._edges}
        return [n for n in self._elements if n not in targets]

    def sinks(self) -> List[str]:
        """Nodes with no outgoing edges."""
        origins = {e.src for e in self._edges}
        return [n for n in self._elements if n not in origins]

    def to_networkx(self) -> nx.DiGraph:
        """Export as a networkx DiGraph (nodes carry their Element)."""
        graph = nx.DiGraph()
        for node_id, element in self._elements.items():
            graph.add_node(node_id, element=element)
        for edge in self._edges:
            graph.add_edge(edge.src, edge.dst,
                           src_port=edge.src_port, dst_port=edge.dst_port)
        return graph

    def topological_order(self) -> List[str]:
        return list(nx.topological_sort(self.to_networkx()))

    def validate(self) -> None:
        """Check DAG-ness and port completeness; raise on violation."""
        graph = self.to_networkx()
        if not nx.is_directed_acyclic_graph(graph):
            raise GraphValidationError(f"{self.name} contains a cycle")
        for node_id, element in self._elements.items():
            used_out = {e.src_port for e in self.out_edges(node_id)}
            if element.traffic_class is not TrafficClass.SINK:
                for port in range(element.ports.outputs):
                    if port not in used_out and element.ports.outputs > 0:
                        # Unconnected classifier outputs silently drop;
                        # allow but only warn through validation result.
                        pass
        # Multi-edges from the same (node, port) are allowed only for
        # explicit duplicating elements (Tee).
        seen: Set[Tuple[str, int]] = set()
        for edge in self._edges:
            key = (edge.src, edge.src_port)
            element = self._elements[edge.src]
            if key in seen and element.kind != "Tee":
                raise GraphValidationError(
                    f"{edge.src} port {edge.src_port} fans out without a Tee"
                )
            seen.add(key)

    def depth(self) -> int:
        """Longest source-to-sink path length in elements.

        The paper calls this the *effective length* of the processing
        path; the SFC parallelization aims to reduce it.
        """
        if not self._elements:
            return 0
        return nx.dag_longest_path_length(self.to_networkx()) + 1

    # ------------------------------------------------------------------
    # Rewriting support
    # ------------------------------------------------------------------
    def copy(self, rename: Optional[Callable[[str], str]] = None) -> "ElementGraph":
        """Shallow-copy structure (elements are shared, not cloned)."""
        rename = rename or (lambda n: n)
        clone = ElementGraph(name=self.name)
        for node_id, element in self._elements.items():
            clone._elements[rename(node_id)] = element
        for edge in self._edges:
            clone._edges.append(
                Edge(rename(edge.src), rename(edge.dst),
                     edge.src_port, edge.dst_port)
            )
        return clone

    def clone(self) -> "ElementGraph":
        """Deep-copy the graph: same structure and node ids,
        independent element instances and state.

        Unlike :meth:`copy`, which shares element objects, a clone can
        absorb profiling traffic (warmed counters, flow caches, NAT
        bindings) without polluting the original — node ids match, so
        a :class:`~repro.sim.engine.BranchProfile` measured on the
        clone applies directly to the original deployment graph.

        Read-only compiled tables are shared, not copied (see
        :class:`~repro.elements.element.SharedTables`): ACL rules and
        matcher tables, Aho–Corasick automata with their compiled scan
        alternation, DFA automata, LPM tries and AES key schedules.
        Each clone keeps its own counters and mutable state: packet
        counters, ``probes``, DPI match and alert counts,
        ``deny_count``, NAT bindings and flow tables.
        """
        import copy
        clone = ElementGraph(name=self.name)
        clone._elements = copy.deepcopy(self._elements)
        clone._edges = list(self._edges)
        return clone

    def remove_node(self, node_id: str, splice: bool = True) -> None:
        """Remove a node; optionally splice predecessors to successors.

        Splicing is only well-defined for pass-through (1-in/1-out)
        elements; the synthesizer uses it when deleting redundant
        elements.
        """
        if node_id not in self._elements:
            raise GraphValidationError(f"unknown node {node_id!r}")
        incoming = self.in_edges(node_id)
        outgoing = self.out_edges(node_id)
        self._edges = [e for e in self._edges
                       if e.src != node_id and e.dst != node_id]
        del self._elements[node_id]
        if splice:
            for in_edge in incoming:
                for out_edge in outgoing:
                    new_edge = Edge(in_edge.src, out_edge.dst,
                                    in_edge.src_port, out_edge.dst_port)
                    if new_edge not in self._edges:
                        self._edges.append(new_edge)

    def redirect_edge(self, edge: Edge, new_dst: str,
                      new_dst_port: int = 0) -> Edge:
        """Replace ``edge`` with one pointing at ``new_dst``."""
        if edge not in self._edges:
            raise GraphValidationError(f"edge {edge} not in graph")
        self._edges.remove(edge)
        replacement = Edge(edge.src, new_dst, edge.src_port, new_dst_port)
        self._edges.append(replacement)
        return replacement

    @classmethod
    def concatenate(cls, graphs: Iterable["ElementGraph"],
                    name: Optional[str] = None) -> "ElementGraph":
        """Join graphs in sequence: each graph's sinks feed the next
        graph's sources.

        This is how an SFC's NF list becomes one processing tree before
        synthesis (Section IV.B.2).  Node ids are prefixed with the
        position to stay unique.
        """
        graphs = list(graphs)
        combined = cls(name=name or "+".join(g.name for g in graphs))
        renamed: List[ElementGraph] = []
        for index, graph in enumerate(graphs):
            prefix = f"nf{index}/"
            renamed.append(graph.copy(rename=lambda n, p=prefix: p + n))
        for graph in renamed:
            for node_id, element in graph._elements.items():
                combined._elements[node_id] = element
            combined._edges.extend(graph._edges)
        for upstream, downstream in zip(renamed, renamed[1:]):
            for sink in upstream.sinks():
                for source in downstream.sources():
                    combined._edges.append(Edge(sink, source))
        return combined

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def run_batch(self, batch: PacketBatch) -> Dict[str, PacketBatch]:
        """Push ``batch`` through the graph; return sink batches.

        Execution proceeds in topological order.  Batches arriving at a
        node over multiple edges are merged (order-preserving); batches
        leaving a classifier are split per output port (recorded in
        ``total_split_ops``); dropped packets vanish at the element
        that dropped them.
        """
        self.validate()
        order = self.topological_order()
        entry_nodes = self.sources()
        if not entry_nodes:
            raise GraphValidationError(f"{self.name} has no source node")
        inbox: Dict[str, List[PacketBatch]] = {n: [] for n in self._elements}
        for node in entry_nodes:
            inbox[node].append(batch)
        results: Dict[str, PacketBatch] = {}
        sink_set = set(self.sinks())
        for node_id in order:
            pending = inbox[node_id]
            if not pending:
                continue
            if len(pending) == 1:
                current = pending[0]
            else:
                current = PacketBatch.merge(pending)
                self.total_split_ops += len(current)
            element = self._elements[node_id]
            outputs = element.push(current)
            if len([p for b in outputs.values() for p in b.packets]) \
                    and len(outputs) > 1:
                self.total_split_ops += sum(len(b) for b in outputs.values())
            if node_id in sink_set:
                collected = PacketBatch.merge(outputs.values()) \
                    if outputs else PacketBatch()
                results[node_id] = collected
                continue
            for port, out_batch in outputs.items():
                destinations = self.out_edges(node_id, port=port)
                if not destinations:
                    continue  # unconnected port: packets are discarded
                if len(destinations) == 1:
                    edge = destinations[0]
                    inbox[edge.dst].append(out_batch)
                    self.edge_packet_counts[edge] = (
                        self.edge_packet_counts.get(edge, 0)
                        + len(out_batch.live_packets)
                    )
                else:
                    # Fan-out (Tee): duplicate the batch per edge.
                    for edge in destinations:
                        duplicate = PacketBatch(
                            [p.clone() for p in out_batch.packets],
                            creation_time=out_batch.creation_time,
                        )
                        inbox[edge.dst].append(duplicate)
                        self.edge_packet_counts[edge] = (
                            self.edge_packet_counts.get(edge, 0)
                            + len(duplicate.live_packets)
                        )
        return results

    def run_packets(self, packets) -> List:
        """Convenience: run loose packets, return surviving ones in order."""
        sink_batches = self.run_batch(PacketBatch(list(packets)))
        survivors = [p for b in sink_batches.values()
                     for p in b.packets if not p.dropped]
        survivors.sort(key=lambda p: p.seqno)
        return survivors

    def to_dot(self, mapping=None) -> str:
        """Export as Graphviz DOT for visualization.

        When ``mapping`` (a :class:`~repro.sim.mapping.Mapping`) is
        given, nodes are colored by placement: CPU-resident elements
        are drawn as plain boxes, fully offloaded elements filled, and
        ratio-split elements half-toned with the ratio in the label.
        """
        lines = [f'digraph "{self.name}" {{',
                 "  rankdir=LR;",
                 "  node [shape=box, fontsize=10];"]
        for node_id in self.topological_order():
            element = self._elements[node_id]
            label = f"{node_id}\\n({element.kind})"
            style = ""
            if mapping is not None and node_id in mapping:
                placement = mapping[node_id]
                if placement.fully_offloaded:
                    style = ', style=filled, fillcolor="#9ecae1"'
                elif placement.offloaded:
                    label += f"\\n{placement.offload_total:.0%} offload"
                    style = ', style=filled, fillcolor="#deebf7"'
            lines.append(f'  "{node_id}" [label="{label}"{style}];')
        for edge in self._edges:
            attrs = ""
            if edge.src_port or edge.dst_port:
                attrs = (f' [taillabel="{edge.src_port}", '
                         f'headlabel="{edge.dst_port}", fontsize=8]')
            lines.append(f'  "{edge.src}" -> "{edge.dst}"{attrs};')
        lines.append("}")
        return "\n".join(lines)

    def describe(self) -> str:
        """Human-readable multi-line structure dump."""
        lines = [f"ElementGraph {self.name!r}: "
                 f"{len(self._elements)} elements, {len(self._edges)} edges,"
                 f" depth {self.depth()}"]
        for node_id in self.topological_order():
            element = self._elements[node_id]
            outs = ", ".join(
                f"[{e.src_port}]->{e.dst}" for e in self.out_edges(node_id)
            )
            lines.append(f"  {node_id} ({element.kind}) {outs}")
        return "\n".join(lines)
