"""A Click-style configuration language for element graphs.

The paper models NFs as Click module configurations (its Fig. 1 shows
textual Click configs).  This module parses a small dialect of that
language into :class:`~repro.elements.graph.ElementGraph`:

.. code-block:: text

    // declarations:  name :: ClassName(arg, key=value, ...);
    src   :: FromDevice(eth0);
    check :: CheckIPHeader();
    fork  :: HashSwitch(fanout=2);
    a     :: Counter();
    b     :: Counter();
    sink  :: ToDevice(eth1);

    // connections:  chains with optional [port] selectors
    src -> check -> fork;
    fork [0] -> a -> sink;
    fork [1] -> b -> sink;

Inline anonymous elements are allowed inside chains
(``src -> Counter() -> sink``).  Line comments use ``//``; block
comments ``/* ... */``.

The class registry covers the standard elements plus convenience
adapters for the NF elements whose constructors need composite state
(lookup tables, pattern sets, ACLs) — the adapter builds a seeded
synthetic instance, e.g. ``IPv4Lookup(prefixes=4096, seed=3)``.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.elements.element import Element
from repro.elements.graph import ElementGraph


class ConfigSyntaxError(ValueError):
    """Raised on malformed configuration text."""


# ---------------------------------------------------------------------------
# Element registry
# ---------------------------------------------------------------------------

ElementFactory = Callable[..., Element]

_REGISTRY: Dict[str, ElementFactory] = {}


def register_element(name: str, factory: ElementFactory) -> None:
    """Register a class name usable in configuration text."""
    _REGISTRY[name] = factory


def registered_elements() -> List[str]:
    """The class names the parser currently understands."""
    return sorted(_REGISTRY)


def _register_standard() -> None:
    from repro.elements import standard

    register_element("FromDevice",
                     lambda device="eth0", **kw: standard.FromDevice(
                         device=str(device), **kw))
    register_element("ToDevice",
                     lambda device="eth0", **kw: standard.ToDevice(
                         device=str(device), **kw))
    register_element("Discard", standard.Discard)
    register_element("CheckIPHeader", standard.CheckIPHeader)
    register_element("DecIPTTL", standard.DecIPTTL)
    register_element("Counter", standard.Counter)
    register_element("Queue",
                     lambda capacity=1024, **kw: standard.Queue(
                         capacity=int(capacity), **kw))
    register_element("Tee",
                     lambda fanout=2, **kw: standard.Tee(
                         fanout=int(fanout), **kw))
    register_element("HashSwitch",
                     lambda fanout=2, **kw: standard.HashSwitch(
                         fanout=int(fanout), **kw))
    register_element("Paint",
                     lambda colour=0, **kw: standard.Paint(
                         colour=int(colour), **kw))
    register_element("PaintSwitch",
                     lambda fanout=2, **kw: standard.PaintSwitch(
                         fanout=int(fanout), **kw))
    register_element("StripEther", standard.StripEther)
    register_element("EtherEncap", standard.EtherEncap)


def _register_nf_adapters() -> None:
    def ipv4_lookup(prefixes=1024, seed=3, table_id=None, **kw):
        from repro.nf.ipv4 import IPv4Lookup, LPMTrie
        table = LPMTrie.random_table(prefix_count=int(prefixes),
                                     seed=int(seed))
        table_id = table_id or f"fib-{prefixes}-{seed}"
        return IPv4Lookup(table, table_id=str(table_id), **kw)

    def ipv6_lookup(prefixes=1024, seed=5, table_id=None, **kw):
        from repro.nf.ipv6 import HashedPrefixTable, IPv6Lookup
        table = HashedPrefixTable.random_table(prefix_count=int(prefixes),
                                               seed=int(seed))
        table_id = table_id or f"fib6-{prefixes}-{seed}"
        return IPv6Lookup(table, table_id=str(table_id), **kw)

    def ipsec_encrypt(key="0123456789abcdef", spi=0x1001, **kw):
        from repro.nf.ipsec import IPsecEncrypt
        return IPsecEncrypt(key=str(key).encode()[:16].ljust(16, b"0"),
                            spi=int(spi), **kw)

    def pattern_match(patterns=64, seed=17, pattern_set_id=None, **kw):
        from repro.nf.dpi import PatternMatch
        from repro.traffic.dpi_profiles import make_pattern_set
        pattern_set = make_pattern_set(count=int(patterns),
                                       seed=int(seed))
        pattern_set_id = pattern_set_id or f"set-{patterns}-{seed}"
        return PatternMatch(pattern_set,
                            pattern_set_id=str(pattern_set_id), **kw)

    def match_verdict(drop=True, **kw):
        from repro.nf.dpi import MatchVerdict
        return MatchVerdict(drop_on_match=_to_bool(drop), **kw)

    def acl_classify(rules=200, seed=11, matcher="tuple_space",
                     drop=False, acl_id=None, **kw):
        from repro.nf.firewall import AclClassify
        from repro.traffic.acl import generate_acl
        rule_list = generate_acl(int(rules), seed=int(seed),
                                 deny_fraction=0.3 if _to_bool(drop)
                                 else 0.0)
        acl_id = acl_id or f"acl-{rules}-{seed}"
        return AclClassify(rule_list, matcher_kind=str(matcher),
                           drop_on_deny=_to_bool(drop),
                           acl_id=str(acl_id), **kw)

    def nat_rewrite(public_ip="203.0.113.1", **kw):
        from repro.nf.nat import NatRewrite
        return NatRewrite(public_ip=str(public_ip), **kw)

    def backend_select(backends=8, pool_id="pool0", **kw):
        from repro.nf.loadbalancer import BackendSelect, \
            ConsistentHashRing
        ring = ConsistentHashRing(
            [f"10.1.0.{i}" for i in range(1, int(backends) + 1)]
        )
        return BackendSelect(ring, pool_id=str(pool_id), **kw)

    register_element("IPv4Lookup", ipv4_lookup)
    register_element("IPv6Lookup", ipv6_lookup)
    register_element("IPsecEncrypt", ipsec_encrypt)
    register_element("PatternMatch", pattern_match)
    register_element("MatchVerdict", match_verdict)
    register_element("AclClassify", acl_classify)
    register_element("NatRewrite", nat_rewrite)
    register_element("BackendSelect", backend_select)


def _to_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).lower() in ("1", "true", "yes", "on")


_register_standard()
_register_nf_adapters()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_DECL_RE = re.compile(
    r"^(?P<name>[A-Za-z_][\w.-]*)\s*::\s*"
    r"(?P<cls>[A-Za-z_]\w*)\s*(\((?P<args>.*)\))?$",
    re.DOTALL,
)
_INLINE_RE = re.compile(
    r"^(?P<cls>[A-Za-z_]\w*)\s*\((?P<args>.*)\)$", re.DOTALL
)
_HOP_RE = re.compile(
    r"^(\[\s*(?P<in_port>\d+)\s*\])?\s*(?P<body>.*?)\s*"
    r"(\[\s*(?P<out_port>\d+)\s*\])?$",
    re.DOTALL,
)


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    return text


def _parse_value(token: str):
    token = token.strip()
    if (token.startswith('"') and token.endswith('"')) or \
            (token.startswith("'") and token.endswith("'")):
        return token[1:-1]
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(token, 0)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token  # bare word -> string


def _split_args(text: str) -> List[str]:
    """Split a comma-separated arg list, honouring quotes and parens."""
    parts: List[str] = []
    depth = 0
    quote: Optional[str] = None
    current = []
    for char in text:
        if quote:
            current.append(char)
            if char == quote:
                quote = None
            continue
        if char in "\"'":
            quote = char
            current.append(char)
        elif char == "(":
            depth += 1
            current.append(char)
        elif char == ")":
            depth -= 1
            current.append(char)
        elif char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if quote or depth:
        raise ConfigSyntaxError(f"unbalanced quotes/parens in ({text})")
    if current or parts:
        parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _parse_arglist(text: Optional[str]) -> Tuple[list, dict]:
    if not text or not text.strip():
        return [], {}
    positional = []
    keyword = {}
    for token in _split_args(text):
        if "=" in token and not token.startswith(('"', "'")):
            key, _eq, value = token.partition("=")
            if not key.strip().isidentifier():
                positional.append(_parse_value(token))
                continue
            keyword[key.strip()] = _parse_value(value)
        else:
            positional.append(_parse_value(token))
    return positional, keyword


class ClickConfigParser:
    """Parses configuration text into an ElementGraph."""

    def __init__(self):
        self._anonymous = 0

    def parse(self, text: str, name: str = "config") -> ElementGraph:
        graph = ElementGraph(name=name)
        statements = [s.strip() for s in
                      _strip_comments(text).split(";")]
        for statement in statements:
            if not statement:
                continue
            if "->" in statement:
                self._parse_connection(graph, statement)
            else:
                self._parse_declaration(graph, statement)
        graph.validate()
        return graph

    # ------------------------------------------------------------------
    def _instantiate(self, cls: str, args_text: Optional[str],
                     name: str) -> Element:
        factory = _REGISTRY.get(cls)
        if factory is None:
            raise ConfigSyntaxError(
                f"unknown element class {cls!r}; known: "
                f"{registered_elements()}"
            )
        positional, keyword = _parse_arglist(args_text)
        keyword.setdefault("name", name)
        try:
            return factory(*positional, **keyword)
        except TypeError:
            # Factories without a name parameter.
            keyword.pop("name", None)
        try:
            element = factory(*positional, **keyword)
        except TypeError as error:
            raise ConfigSyntaxError(
                f"{cls}({args_text or ''}) rejects its arguments: {error}"
            ) from error
        element.name = name
        return element

    def _parse_declaration(self, graph: ElementGraph,
                           statement: str) -> str:
        match = _DECL_RE.match(statement)
        if not match:
            raise ConfigSyntaxError(f"cannot parse statement: "
                                    f"{statement!r}")
        name = match.group("name")
        element = self._instantiate(match.group("cls"),
                                    match.group("args"), name)
        graph.add(element, node_id=name)
        return name

    def _resolve_hop(self, graph: ElementGraph, body: str) -> str:
        body = body.strip()
        decl = _DECL_RE.match(body)
        if decl:  # inline declaration inside a chain
            return self._parse_declaration(graph, body)
        inline = _INLINE_RE.match(body)
        if inline:
            self._anonymous += 1
            name = f"_anon{self._anonymous}"
            element = self._instantiate(inline.group("cls"),
                                        inline.group("args"), name)
            graph.add(element, node_id=name)
            return name
        if body in graph:
            return body
        raise ConfigSyntaxError(
            f"reference to undeclared element {body!r}"
        )

    def _parse_connection(self, graph: ElementGraph,
                          statement: str) -> None:
        hops = [h.strip() for h in statement.split("->")]
        if len(hops) < 2:
            raise ConfigSyntaxError(f"malformed connection: "
                                    f"{statement!r}")
        parsed = []
        for hop in hops:
            match = _HOP_RE.match(hop)
            if not match or not match.group("body").strip():
                raise ConfigSyntaxError(f"malformed hop {hop!r} in "
                                        f"{statement!r}")
            node = self._resolve_hop(graph, match.group("body"))
            in_port = int(match.group("in_port") or 0)
            out_port = int(match.group("out_port") or 0)
            parsed.append((in_port, node, out_port))
        for (src_in, src, src_out), (dst_in, dst, _dst_out) in zip(
                parsed, parsed[1:]):
            graph.connect(src, dst, src_port=src_out, dst_port=dst_in)


def parse_config(text: str, name: str = "config") -> ElementGraph:
    """Parse Click-style configuration text into an element graph."""
    return ClickConfigParser().parse(text, name=name)
