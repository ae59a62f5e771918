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

Both count their probes so the cost model can charge realistically.
Clones of a matcher share its rule list and hash tables but keep their
own probe count.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.elements.element import ActionProfile, SharedTables, TrafficClass
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement, OffloadTraits
from repro.elements.standard import CheckIPHeader
from repro.net.batch import PacketBatch
from repro.net.packet import Packet, ipv4_to_int
from repro.nf.base import NetworkFunction
from repro.traffic.acl import AclRule


class LinearMatcher(SharedTables):
    """Reference first-match scan; O(rules) per packet."""

    shared_tables = ("rules",)

    def __init__(self, rules: List[AclRule]):
        self.rules = list(rules)
        self.probes = 0

    def match(self, packet: Packet) -> Optional[AclRule]:
        for rule in self.rules:
            self.probes += 1
            if rule.matches(packet):
                return rule
        return None


class TupleSpaceMatcher(SharedTables):
    """Tuple-space search: one hash table per (src_len, dst_len) pair.

    Port/protocol constraints are verified per candidate.  Matching
    probes every tuple once — O(distinct tuples), typically tens even
    for 10 k-rule ACLs.
    """

    shared_tables = ("rules", "_tables")

    def __init__(self, rules: List[AclRule]):
        self.rules = list(rules)
        # (src_len, dst_len) -> {(src_key, dst_key): [rules]}
        self._tables: Dict[Tuple[int, int], Dict[Tuple[int, int],
                                                 List[AclRule]]] = {}
        for rule in rules:
            src_len = rule.src_prefix[1]
            dst_len = rule.dst_prefix[1]
            key = (self._key_of(rule.src_prefix[0], src_len),
                   self._key_of(rule.dst_prefix[0], dst_len))
            bucket = self._tables.setdefault((src_len, dst_len), {})
            bucket.setdefault(key, []).append(rule)
        for bucket in self._tables.values():
            for candidates in bucket.values():
                candidates.sort(key=lambda r: r.priority)
        self.probes = 0

    @staticmethod
    def _key_of(value: int, length: int) -> int:
        if length == 0:
            return 0
        return value >> (32 - length)

    @property
    def tuple_count(self) -> int:
        return len(self._tables)

    def match(self, packet: Packet) -> Optional[AclRule]:
        if not packet.is_ipv4:
            return None
        src = ipv4_to_int(packet.ip.src)
        dst = ipv4_to_int(packet.ip.dst)
        best: Optional[AclRule] = None
        for (src_len, dst_len), bucket in self._tables.items():
            self.probes += 1
            key = (self._key_of(src, src_len), self._key_of(dst, dst_len))
            for rule in bucket.get(key, ()):
                if rule.matches(packet):
                    if best is None or rule.priority < best.priority:
                        best = rule
                    break  # bucket sorted by priority: first hit wins
        return best


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
    shared_tables = ("rules",)
    traits = OffloadTraits(
        h2d_bytes_per_packet=16.0,
        d2h_bytes_per_packet=1.0,
        relative=False,
        divergent=True,
        compute_intensity=1.2,
    )

    def __init__(self, rules: List[AclRule],
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
        self.rules = rules
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
        hints = {"rules": float(len(self.rules))}
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
