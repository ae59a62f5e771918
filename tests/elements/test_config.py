"""Unit tests for the Click-style configuration parser."""

import pytest

from repro.elements.config import (
    ConfigSyntaxError,
    parse_config,
    register_element,
    registered_elements,
)
from repro.net.packet import Packet


class TestDeclarations:
    def test_simple_declaration(self):
        graph = parse_config("src :: FromDevice(eth0);")
        assert "src" in graph
        assert graph.element("src").device == "eth0"

    def test_keyword_arguments(self):
        graph = parse_config("q :: Queue(capacity=7);")
        assert graph.element("q").capacity == 7

    def test_unknown_class_rejected(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("x :: FluxCapacitor();")

    def test_malformed_statement_rejected(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("this is not click")

    def test_comments_stripped(self):
        graph = parse_config("""
            // a line comment
            src :: FromDevice(eth0);   /* block
            comment */ dst :: ToDevice(eth1);
            src -> dst;
        """)
        assert set(graph.nodes) == {"src", "dst"}

    @pytest.mark.parametrize("text,rejected", [
        ("c :: Counter(bogus=1);", "Counter(bogus=1)"),
        ("m :: PatternMatch(regexes=evil);", "PatternMatch(regexes=evil)"),
        ("p :: Paint(1, 2);", "Paint(1, 2)"),
    ], ids=["unknown-keyword", "regexes", "extra-positional"])
    def test_rejected_arguments_are_a_syntax_error(self, text, rejected):
        """The error names the element class and its arguments."""
        with pytest.raises(ConfigSyntaxError, match="rejects its") as error:
            parse_config(text)
        assert rejected in str(error.value)

    def test_factory_without_name_parameter(self):
        from repro.elements.standard import Counter
        register_element("Nameless", lambda: Counter())
        graph = parse_config("n :: Nameless();")
        assert graph.element("n").name == "n"

    def test_quoted_string_arguments(self):
        graph = parse_config('p :: Paint(colour=3); '
                             'd :: FromDevice("eth 7"); p -> d;')
        assert graph.element("d").device == "eth 7"


class TestConnections:
    def test_chain(self):
        graph = parse_config("""
            a :: FromDevice(); b :: Counter(); c :: ToDevice();
            a -> b -> c;
        """)
        assert graph.successors("a") == ["b"]
        assert graph.successors("b") == ["c"]

    def test_output_port_selector(self):
        graph = parse_config("""
            fork :: HashSwitch(fanout=2);
            a :: Counter(); b :: Counter();
            t :: ToDevice();
            src :: FromDevice();
            src -> fork;
            fork [0] -> a -> t;
            fork [1] -> b -> t;
        """)
        edges = {(e.src, e.src_port, e.dst) for e in graph.edges}
        assert ("fork", 0, "a") in edges
        assert ("fork", 1, "b") in edges

    def test_inline_declaration_in_chain(self):
        graph = parse_config("""
            src :: FromDevice();
            src -> mid :: Counter() -> sink :: ToDevice();
        """)
        assert "mid" in graph
        assert graph.successors("mid") == ["sink"]

    def test_anonymous_inline_element(self):
        graph = parse_config("""
            src :: FromDevice(); dst :: ToDevice();
            src -> Counter() -> dst;
        """)
        counters = [n for n in graph.nodes
                    if graph.element(n).kind == "Counter"]
        assert len(counters) == 1

    def test_undeclared_reference_rejected(self):
        with pytest.raises(ConfigSyntaxError):
            parse_config("a :: FromDevice(); a -> ghost;")

    def test_cycle_rejected_by_validation(self):
        with pytest.raises(Exception):
            parse_config("""
                a :: Counter(); b :: Counter();
                a -> b; b -> a;
            """)


class TestNFAdapters:
    def test_ipv4_lookup_adapter(self):
        graph = parse_config("r :: IPv4Lookup(prefixes=128, seed=4);")
        element = graph.element("r")
        assert element.table.prefix_count == 128

    def test_acl_adapter(self):
        graph = parse_config(
            "fw :: AclClassify(rules=50, matcher=tree);"
        )
        element = graph.element("fw")
        assert len(element.matcher.rules) == 50
        assert element.matcher_kind == "tree"

    def test_pattern_match_adapter(self):
        graph = parse_config("dpi :: PatternMatch(patterns=8);")
        assert len(graph.element("dpi").automaton.patterns) == 8

    def test_backend_select_adapter(self):
        graph = parse_config("lb :: BackendSelect(backends=3);")
        assert len(graph.element("lb").ring.backends) == 3

    def test_registered_elements_listed(self):
        known = registered_elements()
        assert "FromDevice" in known
        assert "IPsecEncrypt" in known


class TestEndToEnd:
    def test_parsed_firewall_pipeline_processes_packets(self):
        graph = parse_config("""
            // a minimal firewall NF, as in the paper's Fig. 1 style
            src  :: FromDevice(eth0);
            chk  :: CheckIPHeader();
            fw   :: AclClassify(rules=20, seed=2);
            sink :: ToDevice(eth1);
            src -> chk -> fw;
            fw [0] -> sink;
            fw [1] -> sink;
        """)
        out = graph.run_packets([Packet(seqno=i) for i in range(8)])
        assert len(out) == 8

    def test_parsed_graph_usable_by_engine(self, engine, udp_spec):
        from repro.sim.mapping import Deployment, Mapping
        graph = parse_config("""
            src :: FromDevice(); c :: Counter(); dst :: ToDevice();
            src -> c -> dst;
        """)
        deployment = Deployment(graph, Mapping.all_cpu(graph))
        report = engine.session(deployment).run(udp_spec, batch_size=16,
                                                batch_count=10)
        assert report.delivered_packets == 160

    def test_custom_registration(self):
        from repro.elements.standard import Counter

        class MyCounter(Counter):
            pass

        register_element("MyCounter", MyCounter)
        graph = parse_config("m :: MyCounter();")
        assert graph.element("m").kind == "MyCounter"
