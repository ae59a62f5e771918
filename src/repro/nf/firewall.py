"""ACL firewall.

Two matchers over the same rule semantics:

- :class:`LinearMatcher` — first-match linear scan, the reference and
  also the behaviour of naive frameworks whose classification cost
  grows with the rule count (FastClick/NBA in Fig. 17);
- :class:`TupleSpaceMatcher` — a tuple-space-search classifier (hash
  tables keyed by (src len, dst len) prefix pairs), whose per-packet
  probe count grows with the number of *distinct tuples*, not rules —
  the structured classification that lets NFCompass stay flat as ACLs
  grow to 10 000 rules.

Both return the first matching rule in
:func:`~repro.traffic.acl.in_match_order` (ascending priority, list
position breaking ties), whatever order the rules come in.  Both parse
a packet once (:func:`~repro.traffic.acl.packet_fields`) and check
each candidate rule on the parsed fields
(:meth:`~repro.traffic.acl.AclRule.matches_fields`).  Both count their
probes, for tests and inspection only: the cost model prices an ACL
from its ``rules``/``tuples``/``tree`` cost hints, not from the probes
a run made.  Clones of a matcher share its rule list and hash tables
but keep their own probe count.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.elements.element import ActionProfile, SharedTables, TrafficClass
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement, OffloadTraits
from repro.elements.standard import CheckIPHeader
from repro.net.batch import PacketBatch
from repro.net.packet import Packet
from repro.nf.base import NetworkFunction
from repro.traffic.acl import AclRule, in_match_order, packet_fields


class LinearMatcher(SharedTables):
    """Reference first-match scan; O(rules) per packet.

    ``rules`` is a copy in :func:`~repro.traffic.acl.in_match_order`,
    the order the scan takes.
    """

    shared_tables = ("rules",)

    def __init__(self, rules: Iterable[AclRule]):
        self.rules = in_match_order(rules)
        self.probes = 0

    def match(self, packet: Packet) -> Optional[AclRule]:
        fields = packet_fields(packet)
        if fields is None:
            # Every rule is probed, and none matches a non-IPv4 packet.
            self.probes += len(self.rules)
            return None
        src, dst, proto, sport, dport = fields
        for position, rule in enumerate(self.rules, start=1):
            if rule.matches_fields(src, dst, proto, sport, dport):
                self.probes += position
                return rule
        self.probes += len(self.rules)
        return None


class TupleSpaceMatcher(SharedTables):
    """Tuple-space search: one hash table per (src_len, dst_len) pair.

    Port/protocol constraints are verified per candidate.  Matching
    probes every tuple once — O(distinct tuples), typically tens even
    for 10 k-rule ACLs.  ``rules`` is a copy in
    :func:`~repro.traffic.acl.in_match_order`, and the tables are
    built from it, so every bucket lists its rules in that order.
    """

    shared_tables = ("rules", "_tables")

    def __init__(self, rules: Iterable[AclRule]):
        self.rules = in_match_order(rules)
        # (src_len, dst_len) -> {(src_key, dst_key): [rules]}, tuples
        # and keys in the order the rules first use them.  A /0
        # prefix's key is 0.
        tables: Dict[Tuple[int, int], Dict[Tuple[int, int],
                                           List[AclRule]]] = {}
        for rule in self.rules:
            src, src_len = rule.src_prefix
            dst, dst_len = rule.dst_prefix
            key = (src >> (32 - src_len) if src_len else 0,
                   dst >> (32 - dst_len) if dst_len else 0)
            bucket = tables.get((src_len, dst_len))
            if bucket is None:
                bucket = tables[src_len, dst_len] = {}
            candidates = bucket.get(key)
            if candidates is None:
                bucket[key] = [rule]
            else:
                candidates.append(rule)
        self._tables = tables
        self.probes = 0

    @property
    def tuple_count(self) -> int:
        return len(self._tables)

    def match(self, packet: Packet) -> Optional[AclRule]:
        fields = packet_fields(packet)
        if fields is None:
            return None
        src, dst, proto, sport, dport = fields
        # Every tuple is probed once.  Addresses are 32-bit, so a
        # shift by 32 gives a /0 prefix's key of 0.
        self.probes += len(self._tables)
        best: Optional[AclRule] = None
        for (src_len, dst_len), bucket in self._tables.items():
            key = (src >> (32 - src_len), dst >> (32 - dst_len))
            for rule in bucket.get(key, ()):
                if rule.matches_fields(src, dst, proto, sport, dport):
                    if best is None or rule.priority < best.priority:
                        best = rule
                    elif rule.priority == best.priority:
                        best = self._earlier(best, rule)
                    break  # bucket in match order: first hit wins
        return best

    def _earlier(self, first: AclRule, second: AclRule) -> AclRule:
        """Of two tied rules from different tuples, the one ``rules``
        lists first.  Only rule lists with repeated priorities (never
        :func:`~repro.traffic.acl.generate_acl`'s) get here."""
        return next(rule for rule in self.rules
                    if rule is first or rule is second)


class AclClassify(OffloadableElement):
    """The firewall's classification element.

    Routes accepted packets to port 0 and denied packets to port 1
    (dropping them when ``drop_on_deny``).  ``matcher_kind`` selects
    linear or tuple-space matching; the cost model keys off it.
    """

    traffic_class = TrafficClass.CLASSIFIER
    actions = ActionProfile(
        reads_header=True,
        reads_fields={"ip.src", "ip.dst", "ip.proto", "l4.ports"},
    )
    traits = OffloadTraits(
        h2d_bytes_per_packet=16.0,
        d2h_bytes_per_packet=1.0,
        relative=False,
        divergent=True,
        compute_intensity=1.2,
    )

    def __init__(self, rules: Iterable[AclRule],
                 matcher_kind: str = "tuple_space",
                 drop_on_deny: bool = False,
                 acl_id: str = "acl0",
                 name: Optional[str] = None):
        from repro.elements.element import PortSpec
        super().__init__(name=name, ports=PortSpec(inputs=1, outputs=2))
        if matcher_kind == "linear":
            self.matcher = LinearMatcher(rules)
        elif matcher_kind == "tuple_space":
            self.matcher = TupleSpaceMatcher(rules)
        elif matcher_kind == "tree":
            # Classification-tree matcher (what FastClick/NBA build):
            # lookups are logarithmic in the rule count but the tree's
            # memory footprint grows linearly, so large ACLs thrash the
            # cache (the Fig. 17 collapse).  First-match semantics are
            # identical, so the reference matcher serves functionally.
            self.matcher = LinearMatcher(rules)
        else:
            raise ValueError(f"unknown matcher kind {matcher_kind!r}")
        self.matcher_kind = matcher_kind
        self.drop_on_deny = drop_on_deny
        self.acl_id = acl_id
        self.deny_count = 0

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        accepted: List[Packet] = []
        denied: List[Packet] = []
        for packet in batch.live_packets:
            rule = self.matcher.match(packet)
            verdict = rule.action if rule is not None else "deny"
            packet.annotations["fw_rule"] = (
                rule.priority if rule is not None else None
            )
            if verdict == "accept":
                accepted.append(packet)
            else:
                self.deny_count += 1
                if self.drop_on_deny:
                    packet.mark_dropped("firewall deny")
                else:
                    denied.append(packet)
        outputs = {0: PacketBatch(accepted, creation_time=batch.creation_time)}
        if denied or not self.drop_on_deny:
            outputs[1] = PacketBatch(denied, creation_time=batch.creation_time)
        return outputs

    def signature(self) -> Hashable:
        return ("AclClassify", self.acl_id, self.matcher_kind,
                self.drop_on_deny)

    def cost_hints(self) -> Dict[str, float]:
        hints = {"rules": float(len(self.matcher.rules))}
        if isinstance(self.matcher, TupleSpaceMatcher):
            hints["tuples"] = float(self.matcher.tuple_count)
        if self.matcher_kind == "tree":
            hints["tree"] = 1.0
        return hints


class Firewall(NetworkFunction):
    """Stateless ACL firewall NF.

    Table II lists the firewall as header-read-only with no drops; the
    evaluation methodology likewise "modifies the rules to never drop".
    ``drop_on_deny=True`` restores conventional firewall behaviour.
    """

    nf_type = "firewall"
    actions = ActionProfile(
        reads_header=True,
        reads_fields={"eth.type", "ip.src", "ip.dst", "ip.proto",
                      "l4.ports"},
    )

    def __init__(self, rules: Optional[List[AclRule]] = None,
                 matcher_kind: str = "tuple_space",
                 drop_on_deny: bool = False,
                 name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        if rules is None:
            from repro.traffic.acl import generate_acl
            rules = generate_acl(200, deny_fraction=0.0)
        self.rules = rules
        self.matcher_kind = matcher_kind
        self.drop_on_deny = drop_on_deny

    def build_core(self) -> ElementGraph:
        graph = ElementGraph(name=f"{self.name}/core")
        check = CheckIPHeader(name=f"{self.name}/check")
        classify = AclClassify(
            self.rules,
            matcher_kind=self.matcher_kind,
            drop_on_deny=self.drop_on_deny,
            acl_id=f"{self.name}/acl",
            name=f"{self.name}/classify",
        )
        check_id = graph.add(check)
        classify_id = graph.add(classify)
        graph.connect(check_id, classify_id)
        return graph


__all__ = ["LinearMatcher", "TupleSpaceMatcher", "AclClassify", "Firewall"]
