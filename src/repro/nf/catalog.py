"""NF catalog: Table II as data.

Maps NF type keys to (factory, Table II action profile).  The action
profiles are transcribed from the paper's Table II ("NF ACTIONS ON
PACKET"):

============  =========  ============  ===========  ====
NF            HDR/PL Rd  HDR/PL Write  Add/Rm bits  Drop
============  =========  ============  ===========  ====
Probe         Y/N        N/N           N            N
IDS           Y/Y        N/N           N            Y
Firewall      Y/N        N/N           N            N
NAT           Y/N        Y/N           N            N
LB            Y/N        N/N           N            N
WAN Optim.    Y/Y        Y/Y           Y            Y
Proxy         Y/Y        N/Y           N            N
============  =========  ============  ===========  ====

The forwarders and IPsec (Section III workloads) are added with the
profiles implied by their semantics.

Each entry's ``actions`` is the NF class's own profile (single source
of truth): the region flags transcribe Table II, and the optional
``reads_fields``/``writes_fields`` sets refine them to the
field-granular calculus (see MODEL.md).
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple

from repro.elements.element import ActionProfile
from repro.nf.base import NetworkFunction
from repro.nf.dpi import DeepPacketInspector, IntrusionDetectionSystem
from repro.nf.firewall import Firewall
from repro.nf.ipsec import IPsecGateway, IPsecTerminator
from repro.nf.ipv4 import IPv4Forwarder
from repro.nf.ipv6 import IPv6Forwarder
from repro.nf.loadbalancer import LoadBalancer
from repro.nf.misc import Probe, Proxy, WANOptimizer
from repro.nf.nat import NetworkAddressTranslator
from repro.nf.stateful_dpi import StatefulIDS


class CatalogEntry(NamedTuple):
    """One row of the NF catalog."""

    factory: Callable[..., NetworkFunction]
    actions: ActionProfile
    description: str


NF_CATALOG: Dict[str, CatalogEntry] = {
    "probe": CatalogEntry(
        Probe,
        Probe.actions,
        "Passive measurement probe",
    ),
    "ids": CatalogEntry(
        IntrusionDetectionSystem,
        IntrusionDetectionSystem.actions,
        "Intrusion detection system (Aho–Corasick pattern matching, drops)",
    ),
    "dpi": CatalogEntry(
        DeepPacketInspector,
        DeepPacketInspector.actions,
        "Deep packet inspection / traffic classification (no drops)",
    ),
    "firewall": CatalogEntry(
        Firewall,
        Firewall.actions,
        "Stateless ACL firewall (Table II profile: no drops)",
    ),
    "nat": CatalogEntry(
        NetworkAddressTranslator,
        NetworkAddressTranslator.actions,
        "Source/destination NAT",
    ),
    "lb": CatalogEntry(
        LoadBalancer,
        LoadBalancer.actions,
        "L4 load balancer (consistent hashing)",
    ),
    "wanopt": CatalogEntry(
        WANOptimizer,
        WANOptimizer.actions,
        "WAN optimizer (dedup + compression)",
    ),
    "proxy": CatalogEntry(
        Proxy,
        Proxy.actions,
        "Application proxy (payload rewrite)",
    ),
    "ipv4": CatalogEntry(
        IPv4Forwarder,
        IPv4Forwarder.actions,
        "IPv4 forwarder (LPM trie)",
    ),
    "ipv6": CatalogEntry(
        IPv6Forwarder,
        IPv6Forwarder.actions,
        "IPv6 forwarder (hashed prefixes + binary search)",
    ),
    "stateful-ids": CatalogEntry(
        StatefulIDS,
        StatefulIDS.actions,
        "Flow-stateful IDS (cross-packet signature detection)",
    ),
    "ipsec": CatalogEntry(
        IPsecGateway,
        IPsecGateway.actions,
        "IPsec gateway (AES-128-CTR + HMAC-SHA1)",
    ),
    "ipsec-term": CatalogEntry(
        IPsecTerminator,
        IPsecTerminator.actions,
        "IPsec tunnel terminator (verify-then-decrypt, drops on bad tag)",
    ),
}


def make_nf(nf_type: str, **kwargs) -> NetworkFunction:
    """Instantiate a catalog NF by type key."""
    try:
        entry = NF_CATALOG[nf_type]
    except KeyError:
        raise KeyError(
            f"unknown NF type {nf_type!r}; known: {sorted(NF_CATALOG)}"
        ) from None
    return entry.factory(**kwargs)


def action_profile_of(nf_type: str) -> ActionProfile:
    """The Table II action profile of an NF type."""
    return NF_CATALOG[nf_type].actions


__all__ = ["CatalogEntry", "NF_CATALOG", "make_nf", "action_profile_of"]
