"""Epoch loops x arrival processes: the runtime-level attach rule.

Every epoch-driven runtime accepts an ``arrivals=`` process and
applies it — decorrelated per epoch — to each epoch's spec, unless the
spec carries its own process.  These tests pin the rule's three
clauses (attach, decorrelate, defer) on all three runtimes.
"""

import pytest

from repro.core.adaptation import AdaptiveRuntime
from repro.core.compass import NFCompass
from repro.core.multi import MultiTenantScheduler
from repro.faults import FaultTimeline, ResilientRuntime
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.traffic.arrivals import MMPP, DiurnalRamp, Poisson
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

BATCH = 32
COUNT = 30


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=30.0,
                       seed=2)


@pytest.fixture
def sfc():
    return ServiceFunctionChain([make_nf("firewall"), make_nf("ids")])


class TestAdaptiveRuntimeArrivals:
    def test_epochs_see_varying_offered_load(self, spec, sfc):
        runtime = AdaptiveRuntime(NFCompass(), sfc, spec,
                                  batch_size=BATCH,
                                  arrivals=Poisson(seed=6))
        first = runtime.step(spec, batch_count=COUNT)
        second = runtime.step(spec, batch_count=COUNT)
        # Decorrelated epochs: same mean load, different schedules.
        assert first.report.latency_samples \
            != second.report.latency_samples

    def test_without_process_epochs_repeat_exactly(self, spec, sfc):
        runtime = AdaptiveRuntime(NFCompass(), sfc, spec,
                                  batch_size=BATCH)
        first = runtime.step(spec, batch_count=COUNT)
        second = runtime.step(spec, batch_count=COUNT)
        assert first.report.latency_samples \
            == second.report.latency_samples

    def test_spec_process_overrides_runtime_process(self, spec, sfc):
        import dataclasses
        own = MMPP(seed=11)
        carrying = dataclasses.replace(spec, arrivals=own)
        runtime = AdaptiveRuntime(NFCompass(), sfc, spec,
                                  batch_size=BATCH,
                                  arrivals=Poisson(seed=6))
        reference = AdaptiveRuntime(NFCompass(), sfc, spec,
                                    batch_size=BATCH)
        assert runtime.step(
            carrying, batch_count=COUNT).report.latency_samples \
            == reference.step(
                carrying, batch_count=COUNT).report.latency_samples


class TestResilientRuntimeArrivals:
    def test_composes_with_fault_timeline(self, spec, sfc):
        faults = FaultTimeline.seeded(3, ["gpu0", "gpu1"], 0.1,
                                      fault_rate=1.0)
        runtime = ResilientRuntime(sfc, spec, faults, batch_size=BATCH,
                                   arrivals=MMPP(seed=5))
        for _ in range(2):
            report = runtime.step(spec, batch_count=COUNT).report
            injected = float(BATCH * COUNT)
            accounted = (report.delivered_packets
                         + report.dropped_packets)
            assert accounted == pytest.approx(injected, rel=1e-9)


class TestMultiTenantArrivals:
    def test_every_tenant_gets_the_process(self, spec):
        scheduler = MultiTenantScheduler(cores_per_tenant=4,
                                         arrivals=DiurnalRamp())
        scheduler.deploy(
            [("a", ServiceFunctionChain([make_nf("firewall")]), spec),
             ("b", ServiceFunctionChain([make_nf("nat")]), spec)],
            batch_size=BATCH,
        )
        first = scheduler.run(batch_size=BATCH, batch_count=COUNT)
        # The diurnal phase advances with the epoch counter; a later
        # round sees a different offered-load profile.
        scheduler.step(batch_count=COUNT)
        later = scheduler.run(batch_size=BATCH, batch_count=COUNT)
        assert any(first[name].latency_samples
                   != later[name].latency_samples for name in first)
