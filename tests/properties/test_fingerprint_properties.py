"""Hypothesis properties of ``canonical_fingerprint`` (run with -m
property).

Every recorded digest pin hashes through it, and a pin is only sound
if a digest collision implies an identical value, so

- rebuilding the *same* deployment description from scratch hashes
  equal (no memory addresses, dict ordering, or float formatting leak
  into the digest), and
- any single mutation — to the chain, the platform, or any traffic
  parameter — changes the hash.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.platform import CPUSpec, PlatformSpec
from repro.nf.catalog import NF_CATALOG
from repro.runner import canonical_fingerprint
from repro.traffic.distributions import FixedSize, UniformSize
from repro.traffic.generator import TrafficSpec

pytestmark = pytest.mark.property

NF_TYPES = sorted(NF_CATALOG)

chains = st.lists(st.sampled_from(NF_TYPES), min_size=1, max_size=6) \
    .map(tuple)

size_laws = st.one_of(
    st.integers(min_value=64, max_value=1500).map(FixedSize),
    st.tuples(st.integers(min_value=64, max_value=700),
              st.integers(min_value=700, max_value=1500))
      .map(lambda bounds: UniformSize(*bounds)),
)

traffics = st.builds(
    TrafficSpec,
    offered_gbps=st.floats(min_value=0.1, max_value=200.0,
                           allow_nan=False, allow_infinity=False),
    size_law=size_laws,
    protocol=st.sampled_from(["udp", "tcp"]),
    ip_version=st.sampled_from([4, 6]),
    flow_count=st.integers(min_value=1, max_value=4096),
    seed=st.integers(min_value=0, max_value=2**31),
)

platforms = st.builds(
    PlatformSpec,
    sockets=st.integers(min_value=1, max_value=8),
    gpus=st.integers(min_value=1, max_value=4),
    cpu=st.builds(
        CPUSpec,
        cores=st.integers(min_value=1, max_value=64),
        frequency_hz=st.floats(min_value=1e9, max_value=5e9,
                               allow_nan=False, allow_infinity=False),
    ),
)


def deployment_digest(*, chain, platform, traffic) -> str:
    """The digest of one deployment under traffic."""
    return canonical_fingerprint({"chain": chain, "platform": platform,
                                  "traffic": traffic})


def rebuild(spec: TrafficSpec) -> TrafficSpec:
    """A structurally identical TrafficSpec built from fresh objects."""
    return TrafficSpec(
        offered_gbps=spec.offered_gbps,
        size_law=dataclasses.replace(spec.size_law),
        protocol=spec.protocol,
        ip_version=spec.ip_version,
        flow_count=spec.flow_count,
        seed=spec.seed,
        match_profile=spec.match_profile,
    )


class TestEquality:
    @settings(max_examples=60, deadline=None)
    @given(chain=chains, traffic=traffics, platform=platforms)
    def test_identical_deployments_hash_equal(self, chain, traffic,
                                              platform):
        first = deployment_digest(chain=chain, platform=platform,
                                  traffic=traffic)
        second = deployment_digest(
            chain=tuple(chain),
            platform=dataclasses.replace(platform),
            traffic=rebuild(traffic),
        )
        assert first == second

    @settings(max_examples=60, deadline=None)
    @given(traffic=traffics)
    def test_repeated_hashing_is_stable(self, traffic):
        args = dict(chain=("firewall",), platform=PlatformSpec(),
                    traffic=traffic)
        assert deployment_digest(**args) == \
            deployment_digest(**args)


class TestSensitivity:
    @settings(max_examples=60, deadline=None)
    @given(chain=chains, extra=st.sampled_from(NF_TYPES),
           data=st.data())
    def test_chain_mutation_changes_hash(self, chain, extra, data):
        index = data.draw(st.integers(min_value=0, max_value=len(chain)))
        mutated = chain[:index] + (extra,) + chain[index:]
        base = dict(platform=PlatformSpec(),
                    traffic=TrafficSpec(size_law=FixedSize(64),
                                        offered_gbps=40.0))
        assert deployment_digest(chain=chain, **base) != \
            deployment_digest(chain=mutated, **base)

    @settings(max_examples=60, deadline=None)
    @given(platform=platforms,
           field=st.sampled_from(["sockets", "gpus"]),
           bump=st.integers(min_value=1, max_value=3))
    def test_platform_mutation_changes_hash(self, platform, field,
                                            bump):
        mutated = dataclasses.replace(
            platform, **{field: getattr(platform, field) + bump})
        base = dict(chain=("firewall",),
                    traffic=TrafficSpec(size_law=FixedSize(64),
                                        offered_gbps=40.0))
        assert deployment_digest(platform=platform, **base) != \
            deployment_digest(platform=mutated, **base)

    @settings(max_examples=60, deadline=None)
    @given(traffic=traffics,
           field=st.sampled_from(["offered_gbps", "ip_version",
                                  "flow_count", "seed", "protocol"]),
           data=st.data())
    def test_traffic_mutation_changes_hash(self, traffic, field, data):
        if field == "offered_gbps":
            new = traffic.offered_gbps + data.draw(
                st.floats(min_value=0.25, max_value=10.0,
                          allow_nan=False))
        elif field == "protocol":
            new = "tcp" if traffic.protocol == "udp" else "udp"
        elif field == "ip_version":
            new = 6 if traffic.ip_version == 4 else 4
        else:
            new = getattr(traffic, field) + data.draw(
                st.integers(min_value=1, max_value=1000))
        mutated = dataclasses.replace(traffic, **{field: new})
        base = dict(chain=("firewall",), platform=PlatformSpec())
        assert deployment_digest(traffic=traffic, **base) != \
            deployment_digest(traffic=mutated, **base)

    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(min_value=64, max_value=1499))
    def test_packet_size_changes_hash(self, size):
        base = dict(chain=("firewall",), platform=PlatformSpec())
        a = TrafficSpec(size_law=FixedSize(size), offered_gbps=40.0)
        b = TrafficSpec(size_law=FixedSize(size + 1),
                        offered_gbps=40.0)
        assert deployment_digest(traffic=a, **base) != \
            deployment_digest(traffic=b, **base)
