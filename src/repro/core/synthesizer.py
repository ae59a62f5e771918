"""NF-level synthesis (Section IV.B.2).

The synthesizer takes a processing tree (the concatenation of the NF
element graphs in one sequential SFC segment) and removes the four
redundancy sources the paper names:

1. *interior network I/O* — a ToDevice feeding a FromDevice inside the
   chain is pure overhead and is spliced out;
2. *duplicated general elements* — an idempotent element whose twin
   (equal signature) dominates it, with no conflicting writer in
   between, is removed (the Fig. 10 "redundant header classifier");
3. *late drops* — dropping filters are hoisted earlier past
   region-independent modifiers so doomed packets stop consuming
   compute (never past observers/shapers/classifiers: the paper
   requires alerts/logs to fire in the same packet state, and
   classifiers must not move across modifiers or shapers);
4. *overwritten writes* — subsumed by rule 2 via idempotence + the
   intervening-writer check.

Every rewrite is behaviour-preserving for the packets that reach the
chain's output; the test suite verifies this by differential execution
against the unsynthesized graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Set, Tuple

from repro.elements.element import Element, TrafficClass
from repro.elements.graph import Edge, ElementGraph
from repro.obs import resolve_trace


@dataclass
class SynthesisReport:
    """What one synthesis run changed."""

    spliced_io: int = 0
    deduplicated: int = 0
    hoisted_drops: int = 0
    nodes_before: int = 0
    nodes_after: int = 0
    depth_before: int = 0
    depth_after: int = 0
    removed_nodes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"synthesis: {self.nodes_before} -> {self.nodes_after} elements "
            f"(depth {self.depth_before} -> {self.depth_after}); "
            f"spliced {self.spliced_io} I/O, deduplicated "
            f"{self.deduplicated}, hoisted {self.hoisted_drops} drops"
        )


#: The dominator tree's root: one virtual node above every source.
_ROOT = "\x00virtual-root"


def _predecessor_table(successors: Dict[str, List[str]]
                       ) -> Dict[str, List[str]]:
    """Invert a successor table (see ``ElementGraph.successor_table``)."""
    predecessors: Dict[str, List[str]] = {node: [] for node in successors}
    for node, children in successors.items():
        for child in children:
            predecessors[child].append(node)
    return predecessors


def _immediate_dominators(order: List[str],
                          predecessors: Dict[str, List[str]]
                          ) -> Dict[str, str]:
    """Every node's immediate dominator, from :data:`_ROOT`.

    The Cooper–Harvey–Kennedy intersection, numbered by the
    topological ``order``: a node's dominators all precede it there,
    so on a DAG one pass in that order settles every node.
    """
    index = {node: position for position, node in enumerate(order)}
    index[_ROOT] = -1
    idom: Dict[str, str] = {}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    for node in order:
        parents = predecessors[node] or [_ROOT]
        dominator = parents[0]
        for parent in parents[1:]:
            dominator = intersect(dominator, parent)
        idom[node] = dominator
    return idom


def _reachable(table: Dict[str, List[str]], start: str) -> Set[str]:
    """Nodes reachable from ``start`` over ``table``, ``start`` excluded.

    Over successors these are ``start``'s descendants, over
    predecessors its ancestors.
    """
    seen = {start}
    stack = list(table[start])
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(table[node])
    seen.discard(start)
    return seen


class NFSynthesizer:
    """Element-graph rewriter implementing the Fig. 11 decision flow."""

    # ------------------------------------------------------------------
    def synthesize(self, graph: ElementGraph, trace=None
                   ) -> Tuple[ElementGraph, SynthesisReport]:
        """Rewrite ``graph``; return (new graph, report).

        The input graph is not modified (structure is copied; element
        instances are shared).
        """
        trace = resolve_trace(trace)
        with trace.span("synthesize", graph=graph.name) as span:
            work = graph.copy()
            work.name = f"{graph.name}/synth"
            report = SynthesisReport(
                nodes_before=len(work),
                depth_before=work.depth(),
            )
            report.spliced_io = self._splice_interior_io(work, report)
            report.deduplicated = self._deduplicate(work, report)
            report.hoisted_drops = self._hoist_drops(work)
            work.validate()
            report.nodes_after = len(work)
            report.depth_after = work.depth()
            span.set(nodes_before=report.nodes_before,
                     nodes_after=report.nodes_after)
            trace.count("synthesis.removed_elements",
                        report.nodes_before - report.nodes_after)
            trace.count("synthesis.hoisted_drops", report.hoisted_drops)
        return work, report

    # ------------------------------------------------------------------
    # Pass 1: interior I/O splicing
    # ------------------------------------------------------------------
    @staticmethod
    def _splice_interior_io(graph: ElementGraph,
                            report: SynthesisReport) -> int:
        removed = 0
        changed = True
        while changed:
            changed = False
            for node_id in list(graph.nodes):
                element = graph.element(node_id)
                if element.kind not in ("ToDevice", "FromDevice"):
                    continue
                interior = bool(graph.in_edges(node_id)) and bool(
                    graph.out_edges(node_id)
                )
                if not interior:
                    continue
                graph.remove_node(node_id, splice=True)
                report.removed_nodes.append(node_id)
                removed += 1
                changed = True
        return removed

    # ------------------------------------------------------------------
    # Pass 2: dominator-based de-duplication
    # ------------------------------------------------------------------
    def _deduplicate(self, graph: ElementGraph,
                     report: SynthesisReport) -> int:
        removed = 0
        changed = True
        while changed:
            changed = False
            successors = graph.successor_table()
            predecessors = _predecessor_table(successors)
            order = graph.topological_order()
            idom = _immediate_dominators(order, predecessors)

            def dominates(a: str, b: str) -> bool:
                node = idom[b]
                while node != _ROOT:
                    if node == a:
                        return True
                    node = idom[node]
                return False

            kept: Dict[Hashable, List[str]] = {}
            for node_id in order:
                element = graph.element(node_id)
                signature = element.signature()
                if (not element.idempotent or element.is_stateful
                        or element.ports.outputs != 1
                        or (isinstance(signature, tuple) and signature
                            and signature[0] == "unique")):
                    continue
                duplicate_of = None
                for earlier in kept.get(signature, ()):
                    if earlier not in graph:
                        continue
                    if not dominates(earlier, node_id):
                        continue
                    if self._path_has_conflicting_writer(
                            graph, successors, predecessors,
                            earlier, node_id, element):
                        continue
                    duplicate_of = earlier
                    break
                if duplicate_of is not None:
                    graph.remove_node(node_id, splice=True)
                    report.removed_nodes.append(node_id)
                    removed += 1
                    changed = True
                    break  # graph changed: recompute dominators
                kept.setdefault(signature, []).append(node_id)
        return removed

    @staticmethod
    def _path_has_conflicting_writer(graph: ElementGraph,
                                     successors: Dict[str, List[str]],
                                     predecessors: Dict[str, List[str]],
                                     earlier: str, later: str,
                                     element: Element) -> bool:
        """True when some element strictly between ``earlier`` and
        ``later`` invalidates re-using ``earlier``'s effect."""
        between = (_reachable(successors, earlier)
                   & _reachable(predecessors, later))
        reads = element.actions.read_regions()
        writes = element.actions.write_regions()
        for mid in between:
            mid_element = graph.element(mid)
            mid_writes = mid_element.actions.write_regions()
            # A writer of a region the candidate reads could change the
            # candidate's result; a writer of a region the candidate
            # writes would be clobbered if we dropped the later copy.
            if mid_writes & (reads | writes):
                return True
            # Same-kind elements may interact through annotations the
            # region model does not see (e.g. two Paints).
            if mid_element.kind == element.kind:
                return True
        return False

    # ------------------------------------------------------------------
    # Pass 3: drop hoisting within linear segments
    # ------------------------------------------------------------------
    def _hoist_drops(self, graph: ElementGraph) -> int:
        hoisted = 0
        moved = True
        while moved:
            moved = False
            for node_id in graph.topological_order():
                if node_id not in graph:
                    continue
                element = graph.element(node_id)
                if not (element.traffic_class is TrafficClass.FILTER
                        and element.actions.drops):
                    continue
                if self._try_hoist_once(graph, node_id):
                    hoisted += 1
                    moved = True
        return hoisted

    def _try_hoist_once(self, graph: ElementGraph, node_id: str) -> bool:
        """Swap the filter with its predecessor when legal."""
        in_edges = graph.in_edges(node_id)
        out_edges = graph.out_edges(node_id)
        if len(in_edges) != 1 or len(out_edges) != 1:
            return False
        pred_id = in_edges[0].src
        pred = graph.element(pred_id)
        filt = graph.element(node_id)
        if pred.traffic_class is not TrafficClass.MODIFIER:
            return False  # never cross observers/shapers/classifiers/IO
        if pred.is_stateful or filt.is_stateful:
            return False
        pred_in = graph.in_edges(pred_id)
        pred_out = graph.out_edges(pred_id)
        if len(pred_in) != 1 or len(pred_out) != 1:
            return False
        # The modifier must not write what the filter reads (the drop
        # decision must be identical before and after the swap).
        if pred.actions.write_regions() & filt.actions.read_regions():
            return False
        # Re-wire: in -> filter -> pred -> out.
        in_edge = pred_in[0]
        mid_edge = pred_out[0]  # pred -> filter
        out_edge = out_edges[0]
        for edge in (in_edge, mid_edge, out_edge):
            graph._edges.remove(edge)
        graph._edges.append(Edge(in_edge.src, node_id,
                                 in_edge.src_port, 0))
        graph._edges.append(Edge(node_id, pred_id, 0, 0))
        graph._edges.append(Edge(pred_id, out_edge.dst,
                                 0, out_edge.dst_port))
        return True
