"""Frozen seeded input builders: the test oracle of the input builders.

These are the ACL generator, the FIB builder, the traffic generator's
flow table and payload draw, and the tuple-space table build as they
were when every draw went through ``random.Random``'s ``randint``,
``choice`` and ``randrange`` and every table insert through
``setdefault``.  The FIB is the binary trie the product kept before
:class:`~repro.nf.ipv4.LPMTrie` became one hash table per prefix
length: :class:`ReferenceTrie` and :func:`insert` are that trie's
nodes, insert and longest-prefix walk.  The product builders draw the
same Mersenne Twister words through :func:`repro.traffic.rng._below`
and build their tables inline; they must produce the same rules,
routes (the trie's nodes that carry a next hop), lookups, flows,
payload bytes and bucket orders.

It lives under ``tests/`` because nothing in the product runs it; it
is the reference the product builders are checked against:

1. **Seeded corpus** — ``tests/traffic/test_input_reference.py``
   builds ACLs, tuple-space tables (on shuffled rule lists too), FIBs
   and traffic through both and compares them with ``==``, and pins
   digests of the Fig. 17 ACL, the default FIB and the 5-NF deploy's
   sample.
2. **Property** — ``tests/properties/test_input_properties.py`` draws
   sizes, seeds and specs from Hypothesis (``-m property``).

Its value is being frozen: do not "fix" or speed it up.  It builds
the product's :class:`~repro.traffic.acl.AclRule` and
:class:`~repro.traffic.generator.TrafficGenerator` objects, so only
the draws, the trie and the table builds are its own.  Product code
must not import this module.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.net.packet import IPPROTO_TCP, IPPROTO_UDP, int_to_ipv4
from repro.traffic.acl import CLASSBENCH_SEED_RANGES, AclRule
from repro.traffic.generator import TrafficGenerator

_POPULAR_PORTS = (80, 443, 53, 22, 25, 110, 143, 8080, 3306, 5432)


def _draw_prefix(rng: random.Random) -> Tuple[int, int]:
    draw = rng.random()
    acc = 0.0
    length = 32
    for weight, candidate in CLASSBENCH_SEED_RANGES:
        acc += weight
        if draw <= acc:
            length = candidate
            break
    base = rng.getrandbits(32)
    if length < 32:
        base &= ~((1 << (32 - length)) - 1) & 0xFFFFFFFF
    return base, length


def _draw_port_range(rng: random.Random) -> Tuple[int, int]:
    draw = rng.random()
    if draw < 0.45:
        return (0, 65535)  # wildcard
    if draw < 0.85:
        port = rng.choice(_POPULAR_PORTS)
        return (port, port)  # exact popular port
    low = rng.randint(0, 60000)
    return (low, low + rng.randint(0, 5000))


def generate_acl(rule_count: int, seed: int = 11,
                 deny_fraction: float = 0.3) -> List[AclRule]:
    """The reference :func:`repro.traffic.acl.generate_acl`."""
    if rule_count < 1:
        raise ValueError("rule_count must be at least 1")
    rng = random.Random(seed)
    rules: List[AclRule] = []
    for priority in range(rule_count - 1):
        proto_draw = rng.random()
        if proto_draw < 0.55:
            proto: Optional[int] = IPPROTO_TCP
        elif proto_draw < 0.90:
            proto = IPPROTO_UDP
        else:
            proto = None
        rules.append(
            AclRule(
                priority=priority,
                src_prefix=_draw_prefix(rng),
                dst_prefix=_draw_prefix(rng),
                src_ports=_draw_port_range(rng),
                dst_ports=_draw_port_range(rng),
                proto=proto,
                action="deny" if rng.random() < deny_fraction else "accept",
            )
        )
    rules.append(
        AclRule(
            priority=rule_count - 1,
            src_prefix=(0, 0),
            dst_prefix=(0, 0),
            src_ports=(0, 65535),
            dst_ports=(0, 65535),
            proto=None,
            action="accept",
        )
    )
    return rules


def _key_of(value: int, length: int) -> int:
    if length == 0:
        return 0
    return value >> (32 - length)


def tuple_space_tables(rules: List[AclRule]
                       ) -> Dict[Tuple[int, int],
                                 Dict[Tuple[int, int], List[AclRule]]]:
    """The reference build of
    :class:`~repro.nf.firewall.TupleSpaceMatcher`'s ``_tables``."""
    # (src_len, dst_len) -> {(src_key, dst_key): [rules]}
    tables: Dict[Tuple[int, int], Dict[Tuple[int, int],
                                       List[AclRule]]] = {}
    for rule in rules:
        src_len = rule.src_prefix[1]
        dst_len = rule.dst_prefix[1]
        key = (_key_of(rule.src_prefix[0], src_len),
               _key_of(rule.dst_prefix[0], dst_len))
        bucket = tables.setdefault((src_len, dst_len), {})
        bucket.setdefault(key, []).append(rule)
    for bucket in tables.values():
        for candidates in bucket.values():
            candidates.sort(key=lambda r: r.priority)
    return tables


class _TrieNode:
    __slots__ = ("children", "next_hop")

    def __init__(self):
        self.children: List[Optional["_TrieNode"]] = [None, None]
        self.next_hop: Optional[int] = None


class ReferenceTrie:
    """The binary trie :class:`repro.nf.ipv4.LPMTrie` used to be: a
    node per prefix bit, and a lookup that walks at most 32 levels and
    remembers the deepest next hop seen."""

    def __init__(self):
        self._root = _TrieNode()
        self.prefix_count = 0

    def lookup(self, address: int) -> Optional[int]:
        node = self._root
        best = node.next_hop
        for level in range(32):
            bit = (address >> (31 - level)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.next_hop is not None:
                best = node.next_hop
        return best


def insert(trie: ReferenceTrie, prefix: int, length: int,
           next_hop: int) -> None:
    """The reference :meth:`repro.nf.ipv4.LPMTrie.insert`."""
    if not 0 <= length <= 32:
        raise ValueError("IPv4 prefix length must be in [0, 32]")
    node = trie._root
    for level in range(length):
        bit = (prefix >> (31 - level)) & 1
        if node.children[bit] is None:
            node.children[bit] = _TrieNode()
        node = node.children[bit]
    if node.next_hop is None:
        trie.prefix_count += 1
    node.next_hop = next_hop


def random_table(prefix_count: int = 1024, seed: int = 3,
                 next_hops: int = 16) -> ReferenceTrie:
    """The reference :meth:`repro.nf.ipv4.LPMTrie.random_table`."""
    rng = random.Random(seed)
    trie = ReferenceTrie()
    insert(trie, 0, 0, 0)  # default route
    while trie.prefix_count < prefix_count:
        length = rng.choice((8, 16, 16, 24, 24, 24, 32))
        prefix = rng.getrandbits(32)
        prefix &= ~((1 << (32 - length)) - 1) if length < 32 else 0xFFFFFFFF
        insert(trie, prefix & 0xFFFFFFFF, length, rng.randrange(next_hops))
    return trie


class ReferenceGenerator(TrafficGenerator):
    """:class:`~repro.traffic.generator.TrafficGenerator` with the
    reference flow table and payload draw."""

    def _make_flows(self) -> List[tuple]:
        """Pre-draw the (src, dst, sport, dport) tuples of all flows."""
        rng = random.Random(self.spec.seed ^ 0x5F0E)
        flows = []
        for _ in range(self.spec.flow_count):
            if self.spec.ip_version == 4:
                src = int_to_ipv4(rng.randint(0x0A000000, 0x0AFFFFFF))
                dst = int_to_ipv4(rng.randint(0xC0A80000, 0xC0A8FFFF))
            else:
                src = (0x20010DB8 << 96) | rng.getrandbits(64)
                dst = (0x20010DB9 << 96) | rng.getrandbits(64)
            sport = rng.randint(1024, 65535)
            dport = rng.choice([53, 80, 443, 8080, 5001])
            flows.append((src, dst, sport, dport))
        return flows

    def _payload(self, length: int) -> bytes:
        if self.spec.payload_maker is not None:
            return self.spec.payload_maker(self._rng, length)
        return bytes(self._rng.getrandbits(8) for _ in range(min(length, 64))) \
            + b"\x00" * max(0, length - 64)
