"""Unit and behavioural tests for dynamic task adaptation."""

import pytest

from repro.core.adaptation import (
    AdaptiveRuntime,
    TrafficDescriptor,
)
from repro.core.compass import NFCompass
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.runner import canonical_fingerprint
from repro.traffic.distributions import FixedSize
from repro.traffic.dpi_profiles import MatchProfile
from repro.traffic.generator import TrafficSpec


#: ``test_drift_and_reports_pinned``'s epochs and report digest.
ADAPTIVE_PIN_EPOCHS = [
    (1, "0x0.0p+0", False),
    (2, "0x1.0000000000000p+0", True),
    (3, "0x1.2c00000000000p+0", False),
    (4, "0x1.7700000000000p+3", True),
    (5, "0x0.0p+0", False),
    (6, "0x1.ea27983c131d6p-1", True),
    (7, "0x0.0p+0", False),
]
ADAPTIVE_PIN_REPORTS = \
    "1e70a9533690cd7c04c50c75e3e028325a309f2229f77483407395f252154f67"


def spec_of(size=128, profile=MatchProfile.PARTIAL_MATCH, seed=6):
    return TrafficSpec(size_law=FixedSize(size), offered_gbps=40.0,
                       seed=seed, match_profile=profile)


@pytest.fixture
def runtime():
    compass = NFCompass(platform=PlatformSpec())
    sfc = ServiceFunctionChain([make_nf("ipsec"), make_nf("ids")])
    return AdaptiveRuntime(compass, sfc, spec_of(), batch_size=32,
                           drift_threshold=0.25, cooldown_epochs=1)


class TestTrafficDescriptor:
    def test_zero_drift_for_identical_traffic(self):
        a = TrafficDescriptor.of(spec_of())
        b = TrafficDescriptor.of(spec_of())
        assert a.drift_from(b) == 0.0

    def test_size_change_drifts(self):
        small = TrafficDescriptor.of(spec_of(size=64))
        large = TrafficDescriptor.of(spec_of(size=1500))
        assert large.drift_from(small) > 1.0

    def test_match_profile_change_drifts(self):
        a = TrafficDescriptor.of(spec_of(profile=MatchProfile.NO_MATCH))
        b = TrafficDescriptor.of(spec_of(profile=MatchProfile.FULL_MATCH))
        assert a.drift_from(b) >= 1.0


class TestAdaptiveRuntime:
    def test_invalid_parameters_rejected(self):
        compass = NFCompass(platform=PlatformSpec())
        sfc = ServiceFunctionChain([make_nf("probe")])
        with pytest.raises(ValueError):
            AdaptiveRuntime(compass, sfc, spec_of(), drift_threshold=0)
        with pytest.raises(ValueError):
            AdaptiveRuntime(compass, sfc, spec_of(), cooldown_epochs=-1)

    def test_stable_traffic_never_replans(self, runtime):
        results = runtime.run([spec_of(), spec_of(), spec_of()],
                              batch_count=20)
        assert runtime.replans == 0
        assert all(not r.replanned for r in results)

    def test_size_shift_triggers_replan(self, runtime):
        results = runtime.run([spec_of(), spec_of(size=1500)],
                              batch_count=20)
        assert runtime.replans == 1
        assert results[1].replanned
        assert results[1].drift > runtime.drift_threshold

    def test_cooldown_suppresses_thrashing(self, runtime):
        # Oscillating traffic: replans on the first flip, then the
        # cooldown absorbs the immediate flip back.
        runtime.run([spec_of(), spec_of(size=1500), spec_of(size=64)],
                    batch_count=20)
        assert runtime.replans == 1

    def test_replanning_recovers_after_cooldown(self, runtime):
        runtime.run(
            [spec_of(), spec_of(size=1500), spec_of(size=1500),
             spec_of(size=1500)],
            batch_count=20,
        )
        # One replan for the shift; no further replans since the new
        # plan matches the new traffic.
        assert runtime.replans == 1
        assert runtime.observe_drift(spec_of(size=1500)) < \
            runtime.drift_threshold

    def test_epoch_history_recorded(self, runtime):
        runtime.run([spec_of(), spec_of()], batch_count=20)
        assert [r.epoch for r in runtime.history] == [1, 2]
        assert all(r.report.delivered_packets > 0
                   for r in runtime.history)

    def test_drift_and_reports_pinned(self):
        """Size, match-profile and seed shifts on a firewall -> IDS ->
        NAT chain: each epoch's ``(epoch, drift, replanned)`` and the
        reports, recorded while the descriptor still carried the plan's
        branch fractions, whose drift term never fired."""
        sfc = ServiceFunctionChain(
            [make_nf(kind, name=f"{kind}-pin")
             for kind in ("firewall", "ids", "nat")], name="adaptive-pin")
        runtime = AdaptiveRuntime(NFCompass(), sfc, spec_of(),
                                  batch_size=32, cooldown_epochs=1)
        results = runtime.run(
            [spec_of(), spec_of(profile=MatchProfile.FULL_MATCH),
             spec_of(size=150), spec_of(size=1500),
             spec_of(size=1500, seed=7), spec_of(size=64),
             spec_of(size=64)],
            batch_count=20)
        assert [(r.epoch, r.drift.hex(), r.replanned)
                for r in results] == ADAPTIVE_PIN_EPOCHS
        assert canonical_fingerprint([r.report for r in results]) == \
            ADAPTIVE_PIN_REPORTS

    def test_adaptation_beats_stale_plan(self):
        """After a large-packet shift, the adapted plan outperforms
        the stale small-packet plan on the new traffic."""
        compass = NFCompass(platform=PlatformSpec())
        sfc = ServiceFunctionChain([make_nf("ipsec"), make_nf("ids")])
        adaptive = AdaptiveRuntime(compass, sfc, spec_of(size=64),
                                   batch_size=32)
        stale_plan = adaptive.plan
        shifted = TrafficSpec(size_law=FixedSize(1500),
                              offered_gbps=200.0, seed=6)
        result = adaptive.step(shifted, batch_count=40)
        assert result.replanned
        from repro.sim.engine import BranchProfile
        stale_profile = BranchProfile.measure(
            stale_plan.deployment.graph, shifted, sample_packets=64,
            batch_size=32)
        stale_report = compass.engine.session(stale_plan.deployment).run(
            shifted, batch_size=32,
            batch_count=40, branch_profile=stale_profile)
        assert result.report.throughput_gbps >= \
            0.95 * stale_report.throughput_gbps