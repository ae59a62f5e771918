"""ClassBench-style ACL rule generation.

The Fig. 17 experiment loads the firewall with real ACLs from
ClassBench [Taylor & Turner 2007] at 200, 1 000, and 10 000 rules.
ClassBench's distribution files are not redistributable, so we
synthesize rule sets with the same structural properties ClassBench
models: skewed prefix-length distributions, popular-port
concentration, protocol mix heavily favouring TCP/UDP, and a small
fraction of wildcard fields.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.net.packet import IPPROTO_TCP, IPPROTO_UDP, Packet, ipv4_to_int

#: (weight, prefix length) pairs approximating ClassBench ACL seeds:
#: most source/destination prefixes are /16–/28, with some exact /32s
#: and a few wide wildcards.
CLASSBENCH_SEED_RANGES: Tuple[Tuple[float, int], ...] = (
    (0.08, 0),
    (0.10, 8),
    (0.22, 16),
    (0.30, 24),
    (0.18, 28),
    (0.12, 32),
)

_POPULAR_PORTS = (80, 443, 53, 22, 25, 110, 143, 8080, 3306, 5432)


@dataclass(frozen=True)
class AclRule:
    """One 5-field classification rule with a priority and an action.

    Prefixes are (value, length) pairs; port constraints are inclusive
    ranges; ``proto`` of ``None`` is a wildcard.  ``action`` is either
    ``"accept"`` or ``"deny"``.
    """

    priority: int
    src_prefix: Tuple[int, int]
    dst_prefix: Tuple[int, int]
    src_ports: Tuple[int, int]
    dst_ports: Tuple[int, int]
    proto: Optional[int]
    action: str = "accept"

    def matches(self, packet: Packet) -> bool:
        """Exact-semantics match used as the reference matcher."""
        fields = packet_fields(packet)
        return fields is not None and self.matches_fields(*fields)

    def matches_fields(self, src: int, dst: int, proto: int,
                       sport: int, dport: int) -> bool:
        """:meth:`matches` on the fields :func:`packet_fields` parsed.

        Matchers parse a packet once and check every candidate rule
        with this.
        """
        if not _prefix_match(src, self.src_prefix):
            return False
        if not _prefix_match(dst, self.dst_prefix):
            return False
        if self.proto is not None and proto != self.proto:
            return False
        if not self.src_ports[0] <= sport <= self.src_ports[1]:
            return False
        return self.dst_ports[0] <= dport <= self.dst_ports[1]


def packet_fields(packet: Packet
                  ) -> Optional[Tuple[int, int, int, int, int]]:
    """The 5 fields a rule classifies on, or ``None`` if not IPv4.

    :meth:`~repro.net.packet.Packet.five_tuple` with the addresses as
    32-bit integers; a packet with no L4 header has ports 0.
    """
    if not packet.is_ipv4:
        return None
    src, dst, proto, sport, dport = packet.five_tuple()
    return ipv4_to_int(src), ipv4_to_int(dst), proto, sport, dport


def _prefix_match(value: int, prefix: Tuple[int, int]) -> bool:
    base, length = prefix
    if length == 0:
        return True
    shift = 32 - length
    return (value >> shift) == (base >> shift)


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
    """Generate ``rule_count`` rules with ClassBench-like structure.

    The last rule is always a catch-all accept so every packet matches
    something (the Fig. 14 methodology modifies firewall rules to never
    drop; callers wanting drops set ``deny_fraction`` > 0 and rely on
    the deny rules above the catch-all).
    """
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


def linear_match(rules: List[AclRule], packet: Packet) -> Optional[AclRule]:
    """Reference first-match semantics: scan rules in priority order."""
    for rule in rules:
        if rule.matches(packet):
            return rule
    return None
