"""Unit tests for the element cost model."""

import pytest

from repro.core.merge import XorMerge
from repro.hw.costs import BatchStats, CostModel, CostParams
from repro.hw.platform import PlatformSpec
from repro.nf.dpi import PatternMatch
from repro.nf.firewall import AclClassify
from repro.nf.ipsec import IPsecEncrypt
from repro.nf.ipv4 import IPv4Lookup, LPMTrie
from repro.nf.ipv6 import HashedPrefixTable, IPv6Lookup
from repro.elements.standard import CheckIPHeader, Counter
from repro.traffic.acl import generate_acl
from repro.traffic.dpi_profiles import MatchProfile, make_pattern_set


@pytest.fixture
def cost():
    return CostModel(PlatformSpec())


def stats(batch=64, size=256.0, profile=MatchProfile.PARTIAL_MATCH):
    return BatchStats(batch_size=batch, mean_packet_bytes=size,
                      match_profile=profile)


class TestBatchStats:
    def test_payload_excludes_headers(self):
        assert stats(size=100.0).payload_bytes == pytest.approx(58.0)

    def test_payload_never_negative(self):
        assert stats(size=10.0).payload_bytes == 0.0

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchStats(batch_size=-1, mean_packet_bytes=64.0)

    def test_flow_mix_default(self):
        assert 0.0 < stats(batch=64).flow_mix <= 1.0

    def test_with_batch_size(self):
        assert stats(batch=64).with_batch_size(8).batch_size == 8


class TestCpuCosts:
    def test_empty_batch_is_free(self, cost):
        assert cost.cpu_batch_seconds(Counter(), stats(batch=0)) == 0.0

    def test_batch_time_grows_with_batch(self, cost):
        element = CheckIPHeader()
        times = [cost.cpu_batch_seconds(element, stats(batch=b))
                 for b in (8, 32, 128, 512)]
        assert times == sorted(times)

    def test_fixed_batch_overhead_amortizes(self, cost):
        """Per-packet cost shrinks as batches grow (below cache knees)."""
        element = Counter()
        per_packet_small = cost.cpu_batch_seconds(element, stats(batch=8)) / 8
        per_packet_big = cost.cpu_batch_seconds(element,
                                                stats(batch=128)) / 128
        assert per_packet_big < per_packet_small

    def test_ipsec_scales_with_payload(self, cost):
        element = IPsecEncrypt()
        small = cost.cpu_packet_cycles(element, stats(size=64.0))
        large = cost.cpu_packet_cycles(element, stats(size=1500.0))
        assert large > 2 * small

    def test_dpi_match_profile_ordering(self, cost):
        element = PatternMatch(make_pattern_set(16))
        no = cost.cpu_packet_cycles(element, stats(
            size=1500.0, profile=MatchProfile.NO_MATCH))
        partial = cost.cpu_packet_cycles(element, stats(
            size=1500.0, profile=MatchProfile.PARTIAL_MATCH))
        full = cost.cpu_packet_cycles(element, stats(
            size=1500.0, profile=MatchProfile.FULL_MATCH))
        assert no < partial < full
        assert full / no > 3  # the paper's 4-5x gap at large payloads

    def test_dpi_cpu_knee_past_256(self, cost):
        """Fig. 8d: full-match DPI per-packet rate drops past batch 256."""
        element = PatternMatch(make_pattern_set(64))
        def rate(batch):
            s = stats(batch=batch, size=256.0,
                      profile=MatchProfile.FULL_MATCH)
            return batch / cost.cpu_batch_seconds(element, s)
        assert rate(1024) < rate(256)

    def test_ipv6_heavier_than_ipv4(self, cost):
        v4 = IPv4Lookup(LPMTrie.random_table(256))
        v6 = IPv6Lookup(HashedPrefixTable.random_table(256))
        assert cost.cpu_packet_cycles(v6, stats()) > \
            2 * cost.cpu_packet_cycles(v4, stats())

    def test_acl_tree_cost_logarithmic_in_rules(self, cost):
        small = AclClassify(generate_acl(100), matcher_kind="tree")
        large = AclClassify(generate_acl(10_000), matcher_kind="tree")
        ratio = (cost.cpu_packet_cycles(large, stats())
                 / cost.cpu_packet_cycles(small, stats()))
        assert ratio < 2  # probes grow log(rules)...

    def test_acl_tree_footprint_linear_in_rules(self, cost):
        small = AclClassify(generate_acl(100), matcher_kind="tree")
        large = AclClassify(generate_acl(10_000), matcher_kind="tree")
        assert cost.element_footprint_bytes(large) == pytest.approx(
            100 * cost.element_footprint_bytes(small))

    def test_acl_tree_batch_time_thrashes_at_10k(self, cost):
        """...but total batch time collapses via the cache model."""
        small = AclClassify(generate_acl(100), matcher_kind="tree")
        large = AclClassify(generate_acl(10_000), matcher_kind="tree")
        ratio = (cost.cpu_batch_seconds(large, stats())
                 / cost.cpu_batch_seconds(small, stats()))
        assert ratio > 2.5

    def test_co_run_pressure_slows_cpu(self, cost):
        element = PatternMatch(make_pattern_set(64))
        heavy = stats(batch=1024, size=256.0,
                      profile=MatchProfile.FULL_MATCH)
        alone = cost.cpu_batch_seconds(element, heavy)
        contended = cost.cpu_batch_seconds(
            element, heavy,
            co_run_pressure_bytes=11e6,  # co-runners occupy most of L3
        )
        assert contended > alone


class TestGpuCosts:
    def test_non_offloadable_rejected(self, cost):
        with pytest.raises(TypeError):
            cost.gpu_batch_timing(Counter(), stats())

    def test_empty_batch_free(self, cost):
        timing = cost.gpu_batch_timing(IPsecEncrypt(), stats(batch=0))
        assert timing.total == 0.0

    def test_persistent_kernel_cheaper(self, cost):
        element = IPsecEncrypt()
        persistent = cost.gpu_batch_timing(element, stats(),
                                           persistent_kernel=True)
        launched = cost.gpu_batch_timing(element, stats(),
                                         persistent_kernel=False)
        assert persistent.launch < launched.launch
        assert persistent.kernel == launched.kernel

    def test_corunning_kernels_inflate_launch(self, cost):
        element = IPsecEncrypt()
        alone = cost.gpu_batch_timing(element, stats(),
                                      persistent_kernel=False)
        contended = cost.gpu_batch_timing(element, stats(),
                                          persistent_kernel=False,
                                          co_running_kernels=3)
        assert contended.launch > alone.launch

    def test_transfer_scales_with_payload_for_relative_traits(self, cost):
        element = IPsecEncrypt()  # relative transfer sizes
        small = cost.gpu_batch_timing(element, stats(size=64.0))
        large = cost.gpu_batch_timing(element, stats(size=1500.0))
        assert large.h2d > small.h2d

    def test_kernel_time_sublinear_in_batch(self, cost):
        """The utilization model: doubling the batch does not double
        kernel time below saturation."""
        element = IPsecEncrypt()
        t64 = cost.gpu_batch_timing(element, stats(batch=64)).kernel
        t128 = cost.gpu_batch_timing(element, stats(batch=128)).kernel
        assert t128 < 2 * t64

    def test_large_table_spill_penalty(self, cost):
        small = AclClassify(generate_acl(100), matcher_kind="tree")
        large = AclClassify(generate_acl(10_000), matcher_kind="tree")
        t_small = cost.gpu_batch_timing(small, stats()).kernel
        t_large = cost.gpu_batch_timing(large, stats()).kernel
        assert t_large > 1.5 * t_small

    def test_gpu_timing_components_nonnegative(self, cost):
        timing = cost.gpu_batch_timing(IPsecEncrypt(), stats())
        assert timing.launch >= 0
        assert timing.h2d >= 0
        assert timing.kernel > 0
        assert timing.d2h >= 0
        assert timing.total == pytest.approx(
            timing.launch + timing.h2d + timing.kernel + timing.d2h)


class TestReorganizationCosts:
    def test_split_cost_grows_with_packets(self, cost):
        assert cost.split_seconds(128) > cost.split_seconds(16)

    def test_merge_cost(self, cost):
        assert cost.merge_seconds(64) > 0

    def test_duplicate_cost_has_byte_term(self, cost):
        small = cost.duplicate_seconds(64, 64 * 64)
        large = cost.duplicate_seconds(64, 64 * 1500)
        assert large > small

    def test_xor_merge_scales_with_branches_via_token_mass(self, cost):
        # The law is per duplicate copy; branch count manifests as more
        # packets, so 4 branches of 64 packets cost ~2x the 2-branch
        # merge.
        two = cost.cpu_batch_seconds(XorMerge(2),
                                     stats(batch=128, size=64.0))
        four = cost.cpu_batch_seconds(XorMerge(4),
                                      stats(batch=256, size=64.0))
        assert four > 1.5 * two

    def test_params_are_tunable(self):
        cheap = CostModel(PlatformSpec(),
                          CostParams(batch_fixed_cycles=0.0))
        default = CostModel(PlatformSpec())
        element = Counter()
        assert cheap.cpu_batch_seconds(element, stats()) < \
            default.cpu_batch_seconds(element, stats())
