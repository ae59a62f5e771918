"""Unit tests for ElementGraph construction, validation, execution."""

import pytest

from repro.elements.graph import ElementGraph, GraphValidationError
from repro.elements.standard import (
    Classifier,
    Counter,
    Discard,
    FromDevice,
    Tee,
    ToDevice,
)
from repro.net.batch import PacketBatch
from repro.net.packet import Packet


def compiled_chain():
    """Firewall -> IDS (with a regex) -> NAT -> IPsec -> IPv4: every
    element kind that holds a compiled table, plus per-flow state."""
    from repro.nf.base import ServiceFunctionChain
    from repro.nf.dpi import IntrusionDetectionSystem
    from repro.nf.firewall import Firewall
    from repro.nf.ipsec import IPsecGateway
    from repro.nf.ipv4 import IPv4Forwarder
    from repro.nf.nat import NetworkAddressTranslator
    from repro.traffic.acl import generate_acl
    return ServiceFunctionChain([
        Firewall(rules=generate_acl(300, deny_fraction=0.3), name="fw"),
        IntrusionDetectionSystem(name="ids"),
        NetworkAddressTranslator(name="nat"),
        IPsecGateway(name="ipsec"),
        IPv4Forwarder(name="ipv4"),
    ]).concatenated_graph()


def _by_kind(graph, kind):
    return next(graph.element(node) for node in graph.nodes
                if graph.element(node).kind == kind)


def _mutable_state(graph):
    """Counters and per-flow state of a compiled_chain() graph."""
    return {
        "packets": {
            name: _by_kind(graph, kind).packets_processed
            for name, kind in (("fw", "AclClassify"), ("nat", "NatRewrite"))
        },
        "port_counts": dict(_by_kind(graph, "AclClassify").port_packet_counts),
        "deny_count": _by_kind(graph, "AclClassify").deny_count,
        "matches": _by_kind(graph, "PatternMatch").match_count,
        "alerts": _by_kind(graph, "MatchVerdict").alerts,
        "nat_bindings": _by_kind(graph, "NatRewrite").binding_count,
    }


def linear_graph():
    graph = ElementGraph(name="linear")
    graph.chain(FromDevice(name="rx"), Counter(name="count"),
                ToDevice(name="tx"))
    return graph


class TestConstruction:
    def test_add_returns_node_id(self):
        graph = ElementGraph()
        node = graph.add(Counter(name="c1"))
        assert node == "c1"
        assert node in graph

    def test_duplicate_node_id_rejected(self):
        graph = ElementGraph()
        graph.add(Counter(name="c"))
        with pytest.raises(GraphValidationError):
            graph.add(Counter(name="c"))

    def test_connect_unknown_node_rejected(self):
        graph = ElementGraph()
        graph.add(Counter(name="c"))
        with pytest.raises(GraphValidationError):
            graph.connect("c", "missing")

    def test_connect_invalid_port_rejected(self):
        graph = ElementGraph()
        graph.add(Counter(name="a"))
        graph.add(Counter(name="b"))
        with pytest.raises(GraphValidationError):
            graph.connect("a", "b", src_port=3)

    def test_duplicate_edge_rejected(self):
        graph = ElementGraph()
        graph.add(Counter(name="a"))
        graph.add(Counter(name="b"))
        graph.connect("a", "b")
        with pytest.raises(GraphValidationError):
            graph.connect("a", "b")

    def test_chain_builds_pipeline(self):
        graph = linear_graph()
        assert graph.nodes == ["rx", "count", "tx"]
        assert len(graph.edges) == 2


class TestTopology:
    def test_sources_and_sinks(self):
        graph = linear_graph()
        assert graph.sources() == ["rx"]
        assert graph.sinks() == ["tx"]

    def test_topological_order(self):
        graph = linear_graph()
        order = graph.topological_order()
        assert order.index("rx") < order.index("count") < order.index("tx")

    def test_successors_predecessors(self):
        graph = linear_graph()
        assert graph.successors("rx") == ["count"]
        assert graph.predecessors("tx") == ["count"]

    def test_depth(self):
        assert linear_graph().depth() == 3

    def test_cycle_detected(self):
        graph = ElementGraph(name="loop")
        graph.add(Counter(name="a"))
        graph.add(Counter(name="b"))
        graph.connect("a", "b")
        graph.connect("b", "a")
        for query in (graph.validate, graph.topological_order,
                      graph.depth, graph.describe):
            with pytest.raises(GraphValidationError, match="loop"):
                query()

    def test_fanout_without_tee_rejected(self):
        graph = ElementGraph()
        graph.add(Counter(name="a"))
        graph.add(Counter(name="b"))
        graph.add(Counter(name="c"))
        graph._edges.append(type(graph.edges[0]) if graph.edges else None) \
            if False else None
        from repro.elements.graph import Edge
        graph._edges.append(Edge("a", "b", 0, 0))
        graph._edges.append(Edge("a", "c", 0, 0))
        with pytest.raises(GraphValidationError):
            graph.validate()

    def test_tee_fanout_allowed(self):
        graph = ElementGraph()
        graph.add(Tee(fanout=2, name="t"))
        graph.add(Counter(name="b"))
        graph.add(Counter(name="c"))
        graph.connect("t", "b", src_port=0)
        graph.connect("t", "c", src_port=1)
        graph.validate()


class TestExecution:
    def test_linear_passthrough(self):
        graph = linear_graph()
        results = graph.run_batch(PacketBatch([Packet() for _ in range(5)]))
        assert set(results) == {"tx"}
        assert len(results["tx"]) == 5

    def test_run_packets_returns_survivors_in_order(self):
        graph = linear_graph()
        packets = [Packet(seqno=i) for i in range(5)]
        out = graph.run_packets(reversed(packets))
        assert [p.seqno for p in out] == [0, 1, 2, 3, 4]

    def test_discard_sink_swallows_packets(self):
        graph = ElementGraph()
        graph.chain(FromDevice(name="rx"), Discard(name="drop"))
        out = graph.run_packets([Packet() for _ in range(3)])
        assert out == []

    def test_classifier_routes_per_port(self):
        graph = ElementGraph()
        rx = graph.add(FromDevice(name="rx"))
        classify = graph.add(Classifier(
            rules=[lambda p: p.seqno % 2 == 0], name="cls"
        ))
        even = graph.add(Counter(name="even"))
        odd = graph.add(Counter(name="odd"))
        tx = graph.add(ToDevice(name="tx"))
        graph.connect(rx, classify)
        graph.connect(classify, even, src_port=0)
        graph.connect(classify, odd, src_port=1)
        graph.connect(even, tx)
        graph.connect(odd, tx)
        out = graph.run_packets([Packet(seqno=i) for i in range(10)])
        assert len(out) == 10
        assert graph.element("even").count == 5
        assert graph.element("odd").count == 5

    def test_unconnected_classifier_port_discards(self):
        graph = ElementGraph()
        rx = graph.add(FromDevice(name="rx"))
        classify = graph.add(Classifier(
            rules=[lambda p: p.seqno % 2 == 0], name="cls"
        ))
        tx = graph.add(ToDevice(name="tx"))
        graph.connect(rx, classify)
        graph.connect(classify, tx, src_port=0)  # odd port dangling
        out = graph.run_packets([Packet(seqno=i) for i in range(10)])
        assert len(out) == 5

    def test_tee_duplicates_with_same_uid(self):
        graph = ElementGraph()
        rx = graph.add(FromDevice(name="rx"))
        tee = graph.add(Tee(fanout=2, name="tee"))
        a = graph.add(Counter(name="a"))
        b = graph.add(Counter(name="b"))
        tx = graph.add(ToDevice(name="tx"))
        graph.connect(rx, tee)
        graph.connect(tee, a, src_port=0)
        graph.connect(tee, b, src_port=1)
        graph.connect(a, tx)
        graph.connect(b, tx)
        results = graph.run_batch(PacketBatch([Packet(seqno=0)]))
        sink = results["tx"]
        assert len(sink) == 2
        assert sink[0].uid == sink[1].uid

    def test_no_source_rejected(self):
        graph = ElementGraph()
        with pytest.raises(GraphValidationError):
            graph.run_batch(PacketBatch([Packet()]))


class TestRewriting:
    def test_copy_shares_elements(self):
        graph = linear_graph()
        clone = graph.copy()
        assert clone.element("count") is graph.element("count")
        assert len(clone.edges) == len(graph.edges)

    def test_copy_with_rename(self):
        graph = linear_graph()
        clone = graph.copy(rename=lambda n: "x/" + n)
        assert "x/rx" in clone
        assert clone.edges[0].src.startswith("x/")

    def test_clone_deep_copies_elements(self):
        graph = linear_graph()
        clone = graph.clone()
        assert clone.element("count") is not graph.element("count")
        assert set(clone.nodes) == set(graph.nodes)
        assert clone.edges == graph.edges

    def test_clone_isolates_element_state(self):
        from repro.net.batch import PacketBatch
        from repro.net.packet import Packet
        graph = linear_graph()
        clone = graph.clone()
        clone.run_batch(PacketBatch([Packet() for _ in range(8)]))
        # Traffic through the clone must not pollute the original's
        # counters (the profiling-pollution fix relies on this).
        assert clone.element("count").packets_processed == 8
        assert graph.element("count").packets_processed == 0

    def test_clone_shares_compiled_tables(self):
        graph = compiled_chain()
        clone = graph.clone()
        classify = _by_kind(graph, "AclClassify")
        copy = _by_kind(clone, "AclClassify")
        assert copy is not classify
        assert copy.matcher is not classify.matcher
        assert copy.matcher.rules is classify.matcher.rules
        assert copy.matcher._tables is classify.matcher._tables
        match = _by_kind(graph, "PatternMatch")
        match_copy = _by_kind(clone, "PatternMatch")
        assert match_copy.automaton is not match.automaton
        for table in ("patterns", "_goto", "_fail", "_output",
                      "_alternation"):
            assert getattr(match_copy.automaton, table) is \
                getattr(match.automaton, table)
        assert _by_kind(clone, "IPv4Lookup").table is \
            _by_kind(graph, "IPv4Lookup").table
        assert _by_kind(clone, "IPsecEncrypt").cipher is \
            _by_kind(graph, "IPsecEncrypt").cipher

    def test_clone_traffic_leaves_original_state_untouched(self):
        from repro.traffic.dpi_profiles import make_pattern_set
        from repro.traffic.generator import TrafficGenerator, TrafficSpec
        pattern = make_pattern_set()[0]

        def ids_bait(rng, size):
            """About a third of the payloads carry an IDS pattern."""
            body = bytes(rng.randrange(256) for _ in range(size))
            return pattern + body[len(pattern):] if rng.random() < 0.3 \
                else body

        graph = compiled_chain()
        state = _mutable_state(graph)
        clone = graph.clone()
        spec = TrafficSpec(seed=4, payload_maker=ids_bait)
        for batch in TrafficGenerator(spec).batches(32, 4):
            clone.run_batch(batch)
        assert _mutable_state(graph) == state
        touched = _mutable_state(clone)
        # The IDS drops what it alerts on, before the NAT.
        assert touched["alerts"] == touched["matches"] > 0
        assert touched["packets"] == {"fw": 128,
                                      "nat": 128 - touched["alerts"]}
        assert touched["nat_bindings"] > 0

    def test_remove_node_with_splice(self):
        graph = linear_graph()
        graph.remove_node("count", splice=True)
        assert "count" not in graph
        assert graph.successors("rx") == ["tx"]

    def test_remove_node_without_splice(self):
        graph = linear_graph()
        graph.remove_node("count", splice=False)
        assert graph.successors("rx") == []

    def test_remove_unknown_node_rejected(self):
        with pytest.raises(GraphValidationError):
            linear_graph().remove_node("ghost")

    def test_concatenate_joins_sink_to_source(self):
        first = linear_graph()
        second = ElementGraph(name="second")
        second.chain(FromDevice(name="rx2"), ToDevice(name="tx2"))
        combined = ElementGraph.concatenate([first, second])
        assert len(combined) == 5
        assert combined.sources() == ["nf0/rx"]
        assert combined.sinks() == ["nf1/tx2"]
        joins = [e for e in combined.edges
                 if e.src == "nf0/tx" and e.dst == "nf1/rx2"]
        assert len(joins) == 1

    def test_describe_mentions_every_node(self):
        text = linear_graph().describe()
        for node in ("rx", "count", "tx"):
            assert node in text
