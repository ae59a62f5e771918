"""Integration tests for the NFCompass facade."""

import pytest

from repro.core.compass import NFCompass
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.obs import NULL_TRACE
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


@pytest.fixture
def compass():
    return NFCompass(platform=PlatformSpec())


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0, seed=2)


class TestDeploy:
    def test_full_pipeline_produces_valid_deployment(self, compass, spec):
        sfc = ServiceFunctionChain(
            [make_nf("firewall"), make_nf("ids"), make_nf("lb")]
        )
        plan = compass.deploy(sfc, spec)
        plan.deployment.validate()
        assert plan.synthesis_report is not None
        # Profile-guided re-organization: the chosen structure is
        # never longer than the naive chain.
        assert plan.effective_length <= sfc.length

    def test_adaptive_deploy_prefers_higher_capacity(self, compass,
                                                     spec):
        """The chosen plan's capacity is within 10 % of the best
        candidate (the paper's throughput-maintenance criterion)."""
        from repro.sim.engine import BranchProfile
        sfc = ServiceFunctionChain(
            [make_nf("firewall"), make_nf("ids"), make_nf("lb")]
        )
        chosen = compass.deploy(sfc, spec)
        capacities = {}
        sample = BranchProfile.draw_sample(spec, 256, 64)
        for parallelize in (False, True):
            plan = compass._plan_candidate(sfc, spec, sample, 64,
                                           parallelize, NULL_TRACE)
            capacities[parallelize] = plan.session.measure_capacity(
                spec, batch_size=64, batch_count=40,
                branch_profile=plan.race_profile)
        chosen_parallel = chosen.parallel_plan is not None
        assert capacities[chosen_parallel] >= \
            0.85 * max(capacities.values())

    @pytest.mark.parametrize("batch_size", [0, -5])
    @pytest.mark.parametrize("nf_types", [("firewall",),
                                          ("firewall", "ids")])
    def test_batch_size_below_one_rejected(self, compass, spec,
                                           batch_size, nf_types):
        """Unchecked, batch 0 divides by zero while drawing the
        profiling sample and a negative batch fails deep in the
        traffic generator: raced and single-candidate deploys reject
        both first."""
        sfc = ServiceFunctionChain([make_nf(t) for t in nf_types])
        with pytest.raises(ValueError,
                           match="batch_size must be at least 1"):
            compass.deploy(sfc, spec, batch_size=batch_size)
        with pytest.raises(ValueError,
                           match="batch_size must be at least 1"):
            compass.run(sfc, spec, batch_size=batch_size)

    def test_persistent_kernel_default(self, compass, spec):
        sfc = ServiceFunctionChain([make_nf("ipsec")])
        plan = compass.deploy(sfc, spec)
        assert plan.deployment.persistent_kernel

    def test_parallelization_can_be_disabled(self, spec):
        compass = NFCompass(enable_parallelization=False)
        sfc = ServiceFunctionChain([make_nf("firewall"), make_nf("ids")])
        plan = compass.deploy(sfc, spec)
        assert plan.parallel_plan is None
        assert plan.effective_length == 2

    def test_synthesis_can_be_disabled(self, spec):
        compass = NFCompass(enable_synthesis=False)
        sfc = ServiceFunctionChain([make_nf("firewall"), make_nf("ids")])
        plan = compass.deploy(sfc, spec)
        assert plan.synthesis_report is None

    def test_describe_readable(self, compass, spec):
        sfc = ServiceFunctionChain([make_nf("firewall"), make_nf("ids")])
        plan = compass.deploy(sfc, spec)
        text = plan.describe()
        assert "NFCompass plan" in text
        assert "GTA" in text


class TestRun:
    def test_end_to_end_simulation(self, compass, spec):
        sfc = ServiceFunctionChain([make_nf("firewall"), make_nf("ids")])
        result = compass.run(sfc, spec, batch_size=32, batch_count=30)
        report = result.report
        assert report.throughput_gbps > 0
        assert report.latency.mean > 0
        assert report.delivered_packets > 0
        assert result.session.runs_completed > 0
        assert result.plan.deployment is result.deployment

    def test_compass_beats_naive_cpu_for_heavy_chain(self, compass, spec):
        """Sanity: the full pipeline outperforms an unoptimized
        CPU-only deployment of the same chain."""
        from repro.baselines.policies import CPUOnlyBaseline
        from repro.experiments import common
        sfc_types = ["firewall", "ids", "ipsec"]
        sfc = ServiceFunctionChain([make_nf(t) for t in sfc_types])
        saturating = common.saturated(spec)
        compass_report = compass.run(sfc, saturating, batch_size=32,
                                     batch_count=40).report
        baseline_sfc = ServiceFunctionChain(
            [make_nf(t) for t in sfc_types]
        )
        baseline = CPUOnlyBaseline(platform=compass.platform)
        deployment = baseline.deploy(baseline_sfc, saturating,
                                     batch_size=32)
        engine = compass.engine
        baseline_report = engine.session(deployment).run(saturating,
                                                         batch_size=32,
                                                         batch_count=40)
        assert compass_report.throughput_gbps > \
            baseline_report.throughput_gbps
