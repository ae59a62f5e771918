"""Workload generation substrate.

Replaces the paper's Netperf / DPDK-pktgen client machines with seeded,
deterministic generators producing the same packet-size laws the paper
uses (fixed 64 B–1500 B, uniform random, and Intel IMIX) plus the
ClassBench-style ACL rule sets and DPI payload match profiles its
experiments require.
"""

from repro.traffic.arrivals import (
    ArrivalProcess,
    ConstantRate,
    DiurnalRamp,
    MMPP,
    OnOffBursty,
    Poisson,
    attach_arrivals,
    mean_batch_gap,
    peak_rate_gbps,
)
from repro.traffic.distributions import (
    FixedSize,
    UniformSize,
    IMIXSize,
    EmpiricalSize,
    SizeDistribution,
    IMIX_MIX,
)
from repro.traffic.generator import TrafficGenerator, TrafficSpec
from repro.traffic.acl import AclRule, generate_acl, CLASSBENCH_SEED_RANGES
from repro.traffic.dpi_profiles import (
    MatchProfile,
    make_pattern_set,
    make_payload,
)

__all__ = [
    "ArrivalProcess",
    "ConstantRate",
    "DiurnalRamp",
    "MMPP",
    "OnOffBursty",
    "Poisson",
    "attach_arrivals",
    "mean_batch_gap",
    "peak_rate_gbps",
    "FixedSize",
    "UniformSize",
    "IMIXSize",
    "EmpiricalSize",
    "SizeDistribution",
    "IMIX_MIX",
    "TrafficGenerator",
    "TrafficSpec",
    "AclRule",
    "generate_acl",
    "CLASSBENCH_SEED_RANGES",
    "MatchProfile",
    "make_pattern_set",
    "make_payload",
]
