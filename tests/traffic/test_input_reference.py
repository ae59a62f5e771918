"""The seeded input builders against their frozen oracle.

``tests/input_reference.py`` keeps the ACL generator, the FIB builder,
the traffic generator's flow table and payload draw and the
tuple-space table build as they were when every draw went through
``randint``, ``choice`` and ``randrange``, and the FIB as the binary
trie it was.  The product builders must consume the random stream
exactly as they did: this module replays a seeded corpus through both
and compares rules, tuple-space tables (tuple, key and candidate
order, on shuffled rule lists too), FIB routes and lookups and
traffic with ``==``, and pins digests of the inputs the benchmark
workloads build.  The Hypothesis twin in
``tests/properties/test_input_properties.py`` draws further cases.
"""

import os
import subprocess
import sys
from pathlib import Path

import input_reference
import pytest
from builders import (
    assert_acl_matches,
    assert_fib_matches,
    assert_traffic_matches,
    fib_entries,
    fib_nodes,
)

import repro
from repro.nf.ipv4 import LPMTrie
from repro.runner import canonical_fingerprint
from repro.sim.engine import BranchProfile
from repro.traffic.acl import generate_acl
from repro.traffic.distributions import FixedSize, IMIXSize, UniformSize
from repro.traffic.generator import TrafficSpec

#: ``canonical_fingerprint`` of the Fig. 17 10k-rule ACL, recorded
#: while ``generate_acl`` drew through ``randint`` and ``choice``.
ACL_10K = \
    "ec8b8f75ac7989ce8e464aee6dbd26e31e643f8f02f60b5f290dfa54b86d0e6c"
#: ``canonical_fingerprint`` of the frozen builder's default trie,
#: ``fib_nodes(input_reference.random_table())``: the FIB every
#: Fig. 17 cell and default router builds, recorded while the product
#: built that trie itself.
DEFAULT_FIB = \
    "700680f8715554f03cdbf8c402831251d034f48aa9a869bce81180be6283998b"
#: ``canonical_fingerprint`` of ``fib_entries(LPMTrie.random_table())``,
#: the same FIB's 1,024 (length, key, next hop) routes, recorded from
#: the trie's nodes that carry a next hop before the product became
#: one hash table per prefix length.
DEFAULT_FIB_ROUTES = \
    "0a445c6d44c7737038436c3bee0c6541c77ca9f210129d0fa46b61a19692abd3"
#: ``canonical_fingerprint`` of the wire bytes of the 5-NF deploy's
#: 256-packet profiling sample (256 B packets, seed 0).
FIVE_NF_SAMPLE = \
    "23aff57a74f9284ff8a0616052f3c3d0f695ecbd0eb64116d4f51f2418a2cf6a"


@pytest.mark.parametrize("deny_fraction", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("rule_count", [1, 2, 200, 1000])
def test_acls_and_tables(rule_count, deny_fraction):
    for seed in (0, 11, 1000):
        assert_acl_matches(rule_count, seed, deny_fraction)


@pytest.mark.parametrize("deny_fraction", [0.0, 0.3, 1.0])
def test_10k_rule_acls_and_tables(deny_fraction):
    assert_acl_matches(10000, 10000, deny_fraction)


@pytest.mark.parametrize("prefix_count,seed,next_hops", [
    (1024, 3, 16),  # the default table
    (1, 3, 16),  # the default route alone
    (50, 0, 1),
    (300, 1, 5),
    (700, 9, 7),
    (2048, 11, 64),
])
def test_fibs(prefix_count, seed, next_hops):
    assert_fib_matches(prefix_count, seed, next_hops)


@pytest.mark.parametrize("protocol", ["udp", "tcp"])
@pytest.mark.parametrize("ip_version", [4, 6])
@pytest.mark.parametrize("size_law", [
    FixedSize(64), FixedSize(1500), UniformSize(64, 1500), IMIXSize()],
    ids=["64B", "1500B", "uniform", "imix"])
def test_traffic(size_law, ip_version, protocol):
    for seed, flow_count in ((7, 1024), (3, 1), (11, 5)):
        spec = TrafficSpec(size_law=size_law, protocol=protocol,
                           ip_version=ip_version, flow_count=flow_count,
                           seed=seed)
        assert_traffic_matches(spec, 48)


class TestDigestPins:
    def test_fig17_acl(self):
        rules = generate_acl(10000, seed=10000, deny_fraction=0.0)
        assert canonical_fingerprint(rules) == ACL_10K

    def test_default_fib(self):
        assert canonical_fingerprint(
            fib_nodes(input_reference.random_table())) == DEFAULT_FIB

    def test_default_fib_routes(self):
        assert canonical_fingerprint(fib_entries(LPMTrie.random_table())) \
            == DEFAULT_FIB_ROUTES

    def test_five_nf_sample(self):
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                           seed=0)
        sample = BranchProfile.draw_sample(spec, 256, 64)
        assert sum(len(batch) for batch in sample) == 256
        wire = [packet.to_bytes() for batch in sample
                for packet in batch.packets]
        assert canonical_fingerprint(wire) == FIVE_NF_SAMPLE


def test_fib_without_next_hops_raises():
    """``random_table(next_hops=0)`` has no hop to draw: it raises
    instead of drawing forever.  A subprocess with a timeout turns a
    hang into a failure."""
    src = str(Path(repro.__file__).resolve().parents[1])
    script = ("from repro.nf.ipv4 import LPMTrie\n"
              "LPMTrie.random_table(next_hops=0)\n")
    result = subprocess.run([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1].startswith("ValueError")
