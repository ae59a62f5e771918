"""Tests for multi-tenant co-scheduling."""

import dataclasses

import pytest
from builders import ledgerless_fingerprint

from repro.core.multi import MultiTenantScheduler
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.overload import (
    CircuitBreaker,
    ControllerState,
    OverloadConfig,
    RetryPolicy,
    SLOFeedbackAdmission,
)
from repro.overload.breaker import OPEN, BreakerEntry
from repro.runner import canonical_fingerprint
from repro.traffic.arrivals import Poisson
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

#: ``canonical_fingerprint`` of three protected co-run rounds'
#: bottleneck reports and the final admitted fraction, recorded while
#: the tenants still shared mutable controller objects (the breaker
#: tripped by hand with ``record_failure`` before the first round);
#: reports have since gained a ledger, which ``ledgerless_fingerprint``
#: leaves out.
MULTI_TENANT_OVERLOAD = \
    "b5966c89cc1cdb6a221fb3bec96c546890e62c8159bc55b99e412dc87381df83"
MULTI_TENANT_OVERLOAD_LEDGERS = \
    "54cab7c88e90c36ceaef55adb57ff0f71c6acfe088fe38a16ea7f3bded6f6446"


def spec(size=256, seed=5):
    return TrafficSpec(size_law=FixedSize(size), offered_gbps=200.0,
                       seed=seed)


def workloads():
    return [
        ("tenant-ids", ServiceFunctionChain([make_nf("ids")]), spec()),
        ("tenant-fw", ServiceFunctionChain([make_nf("firewall")]),
         spec(seed=6)),
    ]


class TestDeployment:
    def test_deploy_partitions_cores_disjointly(self):
        scheduler = MultiTenantScheduler(platform=PlatformSpec())
        tenants = scheduler.deploy(workloads(), batch_size=32)
        assert len(tenants) == 2
        assert not set(tenants[0].cores) & set(tenants[1].cores)

    def test_deploy_requires_workloads(self):
        scheduler = MultiTenantScheduler()
        with pytest.raises(ValueError):
            scheduler.deploy([])

    def test_too_many_cores_rejected(self):
        scheduler = MultiTenantScheduler(platform=PlatformSpec.small(),
                                         cores_per_tenant=6)
        with pytest.raises(ValueError):
            scheduler.deploy(workloads() + workloads())

    def test_run_requires_deploy(self):
        with pytest.raises(RuntimeError):
            MultiTenantScheduler().run()

    def test_plans_are_valid(self):
        scheduler = MultiTenantScheduler(platform=PlatformSpec())
        for tenant in scheduler.deploy(workloads(), batch_size=32):
            tenant.plan.deployment.validate()
            # Each tenant stays inside its core slice.
            for _node, placement in tenant.plan.deployment.mapping.items():
                assert placement.host in tenant.cores


class TestInterference:
    @pytest.fixture(scope="class")
    def summary(self):
        scheduler = MultiTenantScheduler(platform=PlatformSpec())
        scheduler.deploy(workloads(), batch_size=32)
        return scheduler.consolidation_report(batch_size=32,
                                              batch_count=40)

    def test_corun_never_faster_than_solo(self, summary):
        for tenant, stats in summary.items():
            assert stats["corun_gbps"] <= stats["solo_gbps"] * 1.001

    def test_ids_inflation_exceeds_firewall(self):
        """The Fig. 8e sensitivity ordering drives the CPU inflation
        (once GTA offloads a tenant's hot element, its *end-to-end*
        drop is dominated by GPU contention instead — which is why the
        throughput ordering is asserted on CPU-bound tenants below)."""
        scheduler = MultiTenantScheduler(platform=PlatformSpec())
        scheduler.deploy(workloads(), batch_size=32)
        inputs = {t.name: scheduler._interference_inputs(t)
                  for t in scheduler.tenants}
        assert inputs["tenant-ids"]["cpu_time_inflation"] > \
            inputs["tenant-fw"]["cpu_time_inflation"]

    def test_cpu_bound_sensitivity_ordering(self):
        """For CPU-resident tenants, the more cache-sensitive NF
        (IPv4 forwarder) loses more to co-location than NAT."""
        scheduler = MultiTenantScheduler(platform=PlatformSpec())
        scheduler.deploy([
            ("tenant-ipv4", ServiceFunctionChain([make_nf("ipv4")]),
             spec(seed=7)),
            ("tenant-nat", ServiceFunctionChain([make_nf("nat")]),
             spec(seed=8)),
        ], batch_size=32)
        summary = scheduler.consolidation_report(batch_size=32,
                                                 batch_count=40)
        assert summary["tenant-ipv4"]["drop_fraction"] >= \
            summary["tenant-nat"]["drop_fraction"] - 1e-6

    def test_drops_bounded(self, summary):
        for stats in summary.values():
            assert 0.0 <= stats["drop_fraction"] <= 0.7


class TestDeployState:
    """What deploy() leaves behind for run() and step()."""

    @pytest.fixture
    def scheduler(self):
        scheduler = MultiTenantScheduler(platform=PlatformSpec())
        scheduler.deploy(workloads(), batch_size=32)
        return scheduler

    def test_runs_default_to_the_deploy_batch_size(self, scheduler):
        assert scheduler.step(batch_count=20).report.offered_packets \
            == 20 * 32
        for report in scheduler.run(batch_count=20).values():
            assert report.offered_packets == 20 * 32

    def test_deployed_graphs_are_never_run(self, scheduler):
        for tenant in scheduler.tenants:
            graph = tenant.plan.graph
            assert all(graph.element(node).packets_processed == 0
                       for node in graph.nodes)

    def test_each_tenant_holds_one_session(self, scheduler):
        assert scheduler.session is not None
        sessions = [tenant.plan.session for tenant in scheduler.tenants]
        assert scheduler.session is sessions[0]
        before = [s.runs_completed for s in sessions]
        scheduler.run(batch_count=10)
        scheduler.step(batch_count=10)
        assert [s.runs_completed for s in sessions] == \
            [runs + 2 for runs in before]
        assert [tenant.plan.session
                for tenant in scheduler.tenants] == sessions


class TestOverloadThreading:
    def test_controller_state_threads_through_tenants(self):
        """One overload config protects both tenants, which share the
        only GPU: each tenant's run starts from the controller state
        the previous one left, in deploy order, and each round ends
        with the admission controller observing the bottleneck
        tenant's report.  The GPU's breaker starts open; the first
        tenant's probe closes it for the second.  Every round misses
        the 0.3 ms p99, so the admitted fraction backs off once per
        round."""
        spec = TrafficSpec(size_law=FixedSize(512), offered_gbps=30.0,
                           seed=3)
        tripped = BreakerEntry("gpu0", OPEN, opened_at=0.0,
                               cooldown=0.1e-3)
        overload = OverloadConfig(
            queue_limit=8, slo_ms=0.3,
            admission=SLOFeedbackAdmission(p99_ms=0.3),
            breaker=CircuitBreaker(failure_threshold=1,
                                   cooldown_s=0.1e-3),
            retry=RetryPolicy(budget=1),
            state=ControllerState(breakers=(tripped,)),
        )
        scheduler = MultiTenantScheduler(
            platform=dataclasses.replace(PlatformSpec(), gpus=1),
            overload=overload)
        scheduler.deploy([
            ("vpn", ServiceFunctionChain([make_nf("ipsec")], name="vpn"),
             spec),
            ("edge", ServiceFunctionChain([make_nf("firewall"),
                                           make_nf("ids")], name="edge"),
             spec),
        ], batch_size=32)
        reports, fractions = [], []
        for _ in range(3):
            reports.append(scheduler.step(batch_count=60).report)
            fractions.append(scheduler.overload.state.admitted_fraction)
        assert fractions == pytest.approx([0.7, 0.49, 0.343])
        assert scheduler.overload.state.breakers == ()
        assert [r.name for r in reports] == \
            ["nfcompass:vpn", "nfcompass:edge", "nfcompass:edge"]
        assert ledgerless_fingerprint([reports, fractions[-1]]) == \
            MULTI_TENANT_OVERLOAD
        assert canonical_fingerprint([r.ledger for r in reports]) == \
            MULTI_TENANT_OVERLOAD_LEDGERS


class TestRejectedEpoch:
    def test_step_below_one_batch_leaves_the_epoch_count(self):
        """Arrivals are decorrelated by epoch number, so a rejected
        round that bumped the counter would move every later report."""
        def fresh():
            scheduler = MultiTenantScheduler(arrivals=Poisson(seed=2))
            scheduler.deploy(workloads(), batch_size=32)
            return scheduler

        scheduler = fresh()
        for count in (0, -40):
            with pytest.raises(ValueError,
                               match=f"^batch_count must be at least 1, "
                                     f"got {count}$"):
                scheduler.step(batch_count=count)
        assert scheduler._epochs == 0
        result = scheduler.step(batch_count=20)
        assert result.epoch == 1
        assert canonical_fingerprint(result.report) == \
            canonical_fingerprint(fresh().step(batch_count=20).report)

    def test_step_before_deploy_leaves_the_epoch_count(self):
        scheduler = MultiTenantScheduler()
        with pytest.raises(RuntimeError, match="deploy"):
            scheduler.step()
        assert scheduler._epochs == 0
