"""Tests for Graphviz DOT export."""

from repro.elements.graph import ElementGraph
from repro.elements.standard import Counter, FromDevice, ToDevice
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.mapping import Mapping


def simple_graph():
    graph = ElementGraph(name="g")
    graph.chain(FromDevice(name="rx"), Counter(name="c"),
                ToDevice(name="tx"))
    return graph


class TestDotExport:
    def test_contains_all_nodes_and_edges(self):
        dot = simple_graph().to_dot()
        assert dot.startswith('digraph "g"')
        for node in ("rx", "c", "tx"):
            assert f'"{node}"' in dot
        assert '"rx" -> "c"' in dot
        assert dot.rstrip().endswith("}")

    def test_port_labels_present(self):
        graph = ElementGraph(name="ports")
        from repro.elements.standard import HashSwitch
        rx = graph.add(FromDevice(name="rx"))
        hs = graph.add(HashSwitch(fanout=2, name="hs"))
        a = graph.add(ToDevice(name="a"))
        b = graph.add(ToDevice(name="b"))
        graph.connect(rx, hs)
        graph.connect(hs, a, src_port=0)
        graph.connect(hs, b, src_port=1)
        dot = graph.to_dot()
        assert 'taillabel="1"' in dot

    def test_mapping_colors_offloaded_nodes(self):
        graph = ServiceFunctionChain(
            [make_nf("ipsec")]
        ).concatenated_graph()
        mapping = Mapping.fixed_ratio(graph, 0.7)
        dot = graph.to_dot(mapping=mapping)
        assert "70% offload" in dot
        full = Mapping.fixed_ratio(graph, 1.0)
        dot_full = graph.to_dot(mapping=full)
        assert "#9ecae1" in dot_full

    def test_dot_is_parseable_by_networkx_pydot_free_check(self):
        """Light syntactic sanity: balanced braces, quoted ids."""
        dot = simple_graph().to_dot()
        assert dot.count("{") == dot.count("}")
        assert dot.count('"') % 2 == 0
