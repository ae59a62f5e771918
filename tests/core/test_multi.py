"""Tests for multi-tenant co-scheduling."""

import pytest

from repro.core.multi import MultiTenantScheduler
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


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
        sessions = [tenant.session for tenant in scheduler.tenants]
        assert scheduler.session is sessions[0]
        before = [s.runs_completed for s in sessions]
        scheduler.run(batch_count=10)
        scheduler.step(batch_count=10)
        assert [s.runs_completed for s in sessions] == \
            [runs + 2 for runs in before]
        assert [tenant.session for tenant in scheduler.tenants] == sessions
