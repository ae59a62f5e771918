"""The redesigned deployment API: DeploymentResult, CompassPlan
accessors, a deploy's profile sizes, and the five-stage trace
contract."""

import warnings

import pytest

from repro.core.compass import (
    CompassPlan,
    DeploymentResult,
    NFCompass,
    _sample_sizes,
)
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.obs import NULL_TRACE, Trace, use_trace
from repro.sim.engine import BranchProfile
from repro.sim.kernel import SimulationSession
from repro.sim.metrics import ThroughputLatencyReport
from repro.traffic.generator import TrafficSpec

PIPELINE_STAGES = ("parallelize", "synthesize", "expand",
                   "partition", "simulate")


@pytest.fixture(scope="module")
def compass():
    return NFCompass()


@pytest.fixture(scope="module")
def spec():
    return TrafficSpec(offered_gbps=10, seed=3)


@pytest.fixture(scope="module")
def traced_result(compass, spec):
    sfc = ServiceFunctionChain([make_nf("firewall"), make_nf("nat")],
                               name="result-sfc")
    trace = Trace(name="test")
    result = compass.run(sfc, spec, batch_size=32, batch_count=20,
                         trace=trace)
    return result, trace


class TestDeploymentResult:
    def test_bundles_plan_report_session_trace(self, traced_result):
        result, trace = traced_result
        assert isinstance(result, DeploymentResult)
        assert isinstance(result.plan, CompassPlan)
        assert isinstance(result.report, ThroughputLatencyReport)
        assert isinstance(result.session, SimulationSession)
        assert result.trace is trace
        assert result.deployment is result.plan.deployment
        assert result.session is result.plan.session

    def test_session_is_reusable(self, traced_result, spec):
        result, _ = traced_result
        runs_before = result.session.runs_completed
        report = result.session.run(spec, batch_size=32, batch_count=10)
        assert report.delivered_packets > 0
        assert result.session.runs_completed == runs_before + 1

    def test_summary_delegates_without_warning(self, traced_result):
        result, _ = traced_result
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert result.summary() == result.report.summary()
        assert result.report.summary() in result.describe()

    def test_unknown_attribute_raises_without_warning(self,
                                                      traced_result):
        result, _ = traced_result
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(AttributeError):
                result.definitely_not_an_attribute

    def test_default_trace_is_null(self, compass, spec):
        sfc = ServiceFunctionChain([make_nf("firewall")])
        result = compass.run(sfc, spec, batch_size=32, batch_count=10)
        assert result.trace is NULL_TRACE


class TestPlanAccessors:
    def test_result_style_accessors(self, traced_result):
        plan = traced_result[0].plan
        assert plan.graph is plan.deployment.graph
        assert plan.mapping is plan.deployment.mapping
        assert plan.partition is plan.allocation_report.partition
        assert plan.offload_ratios is \
            plan.allocation_report.offload_ratios

    def test_profile_measures_on_a_clone(self, traced_result, spec):
        plan = traced_result[0].plan
        counts_before = {
            node: plan.graph.element(node).packets_processed
            for node in plan.graph.nodes
        }
        for profile in (plan.race_profile, plan.run_profile):
            assert isinstance(profile, BranchProfile)
            assert profile.drop_fractions  # something was measured
        fresh = BranchProfile.measure(plan.graph.clone(), spec,
                                      _sample_sizes(32)[1], 32)
        assert fresh == plan.run_profile
        counts_after = {
            node: plan.graph.element(node).packets_processed
            for node in plan.graph.nodes
        }
        assert counts_after == counts_before  # live graph untouched
        assert set(counts_after.values()) == {0}  # and never run


class TestProfileConfig:
    """The sample sizes a deploy profiles at: the capacity race's, and
    the allocator's and the final simulation's."""

    def test_deploy_time_matches_legacy_formula(self):
        for batch_size in (8, 64, 256):
            assert _sample_sizes(batch_size)[0] == \
                max(128, batch_size * 2)

    def test_run_time_matches_legacy_formula(self):
        for batch_size in (8, 64, 256):
            assert _sample_sizes(batch_size)[1] == \
                max(256, batch_size * 4)


class TestTraceContract:
    def test_all_five_pipeline_stages_traced(self, traced_result):
        _, trace = traced_result
        names = set(trace.stage_names())
        for stage in PIPELINE_STAGES:
            assert stage in names, f"missing {stage!r} span"

    def test_stage_spans_nest_under_run(self, traced_result):
        _, trace = traced_result
        spans = {s.span_id: s for s in trace.spans}
        (run_span,) = trace.spans_named("run")
        assert run_span.parent_id is None
        for span in trace.spans:
            root = span
            while root.parent_id is not None:
                root = spans[root.parent_id]
            assert root is run_span

    def test_work_metrics_recorded(self, traced_result):
        _, trace = traced_result
        counters = trace.metrics.snapshot()["counters"]
        assert counters["compass.candidates_evaluated"] >= 1
        assert counters["sim.runs"] >= 1
        assert counters["sim.batches"] >= 20
        assert counters["expansion.virtual_instances"] > 0

    def test_ambient_trace_via_use_trace(self, compass, spec):
        sfc = ServiceFunctionChain([make_nf("firewall")])
        trace = Trace(name="ambient")
        with use_trace(trace):
            result = compass.run(sfc, spec, batch_size=32,
                                 batch_count=10)
        assert result.trace is trace
        assert "simulate" in trace.stage_names()
