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
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Iterable, List, Optional, Tuple

from repro.net.packet import IPPROTO_TCP, IPPROTO_UDP, Packet, ipv4_to_int
from repro.traffic.rng import _below

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

#: (cumulative weight, prefix length, base mask) per seed range, summed
#: in ``CLASSBENCH_SEED_RANGES`` order.
_PREFIX_THRESHOLDS: Tuple[Tuple[float, int, int], ...] = tuple(
    (threshold, length, ~((1 << (32 - length)) - 1) & 0xFFFFFFFF)
    for threshold, (_weight, length) in zip(
        accumulate(weight for weight, _length in CLASSBENCH_SEED_RANGES),
        CLASSBENCH_SEED_RANGES)
)
_ANY_PORT = (0, 65535)
_POPULAR_RANGES = tuple((port, port) for port in _POPULAR_PORTS)


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

        The reference check of all 5 fields.  The tuple-space matcher
        leaves the two prefix checks to its bucket keys and checks
        only protocol and ports itself; the tests hold it to this.
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


def _draw_prefix(draw: Callable[[], float],
                 bits: Callable[[int], int]) -> Tuple[int, int]:
    u = draw()
    for threshold, length, mask in _PREFIX_THRESHOLDS:
        if u <= threshold:
            return bits(32) & mask, length
    return bits(32), 32


def _draw_port_range(draw: Callable[[], float],
                     bits: Callable[[int], int]) -> Tuple[int, int]:
    u = draw()
    if u < 0.45:
        return _ANY_PORT  # wildcard
    if u < 0.85:
        return _POPULAR_RANGES[_below(bits, 10)]  # exact popular port
    low = _below(bits, 60001)
    return (low, low + _below(bits, 5001))


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
    draw = rng.random
    bits = rng.getrandbits
    rules: List[AclRule] = []
    append = rules.append
    for priority in range(rule_count - 1):
        proto_draw = draw()
        if proto_draw < 0.55:
            proto: Optional[int] = IPPROTO_TCP
        elif proto_draw < 0.90:
            proto = IPPROTO_UDP
        else:
            proto = None
        # Positional, in field order: keywords made the build ~15 % slower.
        append(
            AclRule(
                priority,
                _draw_prefix(draw, bits),  # src_prefix
                _draw_prefix(draw, bits),  # dst_prefix
                _draw_port_range(draw, bits),  # src_ports
                _draw_port_range(draw, bits),  # dst_ports
                proto,
                "deny" if draw() < deny_fraction else "accept",
            )
        )
    append(
        AclRule(
            priority=rule_count - 1,
            src_prefix=(0, 0),
            dst_prefix=(0, 0),
            src_ports=_ANY_PORT,
            dst_ports=_ANY_PORT,
            proto=None,
            action="accept",
        )
    )
    return rules


def in_match_order(rules: Iterable[AclRule]) -> List[AclRule]:
    """``rules`` in the order every matcher classifies in: ascending
    priority, list position breaking ties."""
    return sorted(rules, key=attrgetter("priority"))


def linear_match(rules: Iterable[AclRule],
                 packet: Packet) -> Optional[AclRule]:
    """Reference first-match semantics: scan rules in
    :func:`in_match_order`."""
    for rule in in_match_order(rules):
        if rule.matches(packet):
            return rule
    return None
