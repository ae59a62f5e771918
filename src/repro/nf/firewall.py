"""ACL firewall.

Every :class:`AclClassify` classifies with one
:class:`TupleSpaceMatcher`, a tuple-space-search classifier (hash
tables keyed by (src len, dst len) prefix pairs) whose per-packet
probe count grows with the number of *distinct tuples*, not rules.  It
returns the first matching rule in
:func:`~repro.traffic.acl.in_match_order` (ascending priority, list
position breaking ties), whatever order the rules come in: the verdict
of :func:`~repro.traffic.acl.linear_match`, the reference.  It parses a
packet once (:func:`~repro.traffic.acl.packet_fields`), and in front of
the tables, as Open vSwitch puts an exact-match cache in front of its
classifier, a verdict memo maps each 5-tuple it has classified to the
rule it found, so a flow is classified from scratch once.

The matcher kind is a price, not an implementation.  ``"tuple_space"``
is the structured classification that lets NFCompass stay flat as ACLs
grow to 10 000 rules; ``"tree"`` is the classification tree of
FastClick and NBA, whose footprint grows with the rules (the Fig. 17
collapse).  Both classify alike, and the cost model prices each from
:meth:`AclClassify.cost_hints`.  Clones of a matcher share its rule
list, its verdict memo and its tables; the tables are built on first
use, so a firewall that is only priced never builds them.
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

#: (src_len, dst_len) -> {(src_key, dst_key): [rules]}.
_Tables = Dict[Tuple[int, int], Dict[Tuple[int, int], List[AclRule]]]
#: The 5 fields of :func:`~repro.traffic.acl.packet_fields`.
_Fields = Tuple[int, int, int, int, int]

#: Most 5-tuples a verdict memo holds; a full memo starts over.  A run
#: profile classifies at most max(256, 4 * batch) packets.
_MEMO_LIMIT = 4096
#: What the memo gives for a 5-tuple it has not seen (``None`` is a
#: verdict: no rule matches).
_UNSEEN = object()


class TupleSpaceMatcher(SharedTables):
    """Tuple-space search: one hash table per (src_len, dst_len) pair,
    behind a verdict memo.

    ``rules`` is a copy in :func:`~repro.traffic.acl.in_match_order`.
    The first :meth:`match` or :attr:`tuple_count` builds the tables
    from it, in place in the dict every clone shares, so every bucket
    lists its rules in that order and a clone made before the build
    sees it.  Classifying a 5-tuple from scratch probes every tuple
    once — O(distinct tuples), typically tens even for 10 k-rule ACLs —
    and checks protocol and ports on each candidate of a probed bucket.
    The verdict memo maps every 5-tuple classified so far to its rule
    (or ``None``), so a flow that repeats, on this matcher or on any
    clone, is classified once.  A verdict depends only on the frozen
    rules and the 5 fields, so the memo is pure: no result depends on
    its hits, misses or clears.
    """

    shared_tables = ("rules", "_tables", "_verdicts")

    def __init__(self, rules: Iterable[AclRule]):
        self.rules = in_match_order(rules)
        self._tables: _Tables = {}  # empty until _fill()
        self._verdicts: Dict[_Fields, Optional[AclRule]] = {}

    def _fill(self) -> _Tables:
        """Build the tables: tuples and keys in the order the rules
        first use them.  A /0 prefix's key is 0."""
        tables = self._tables
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
        return tables

    @property
    def tuple_count(self) -> int:
        return len(self._tables or self._fill())

    def match(self, packet: Packet) -> Optional[AclRule]:
        fields = packet_fields(packet)
        if fields is None:
            return None
        verdicts = self._verdicts
        verdict = verdicts.get(fields, _UNSEEN)
        if verdict is _UNSEEN:
            if len(verdicts) >= _MEMO_LIMIT:
                verdicts.clear()
            verdict = verdicts[fields] = self._classify(*fields)
        return verdict

    def _classify(self, src: int, dst: int, proto: int, sport: int,
                  dport: int) -> Optional[AclRule]:
        """The first rule in match order for these fields, from the
        tables.

        Addresses are 32-bit, so a shift by 32 gives a /0 prefix's key
        of 0, and a bucket's key equals the probe's exactly when both
        prefixes of its rules match: only protocol and ports are left
        to check (:meth:`~repro.traffic.acl.AclRule.matches_fields`
        stays the reference).
        """
        tables = self._tables or self._fill()
        best: Optional[AclRule] = None
        for (src_len, dst_len), bucket in tables.items():
            for rule in bucket.get((src >> (32 - src_len),
                                    dst >> (32 - dst_len)), ()):
                if rule.proto is not None and rule.proto != proto:
                    continue
                low, high = rule.src_ports
                if not low <= sport <= high:
                    continue
                low, high = rule.dst_ports
                if not low <= dport <= high:
                    continue
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
    (dropping them when ``drop_on_deny``).  ``matcher_kind`` is the
    price: ``"tuple_space"`` or ``"tree"`` (a classification tree, as
    FastClick and NBA build: lookups logarithmic in the rule count, but
    a footprint that grows linearly, so large ACLs thrash the cache).
    Both classify with one :class:`TupleSpaceMatcher`.
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
        if matcher_kind not in ("tuple_space", "tree"):
            raise ValueError(f"unknown matcher kind {matcher_kind!r}")
        self.matcher = TupleSpaceMatcher(rules)
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
        if self.matcher_kind == "tree":
            hints["tree"] = 1.0
        else:
            hints["tuples"] = float(self.matcher.tuple_count)
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


__all__ = ["TupleSpaceMatcher", "AclClassify", "Firewall"]
