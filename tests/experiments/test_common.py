"""Tests for the shared experiment utilities."""

import pytest

from repro.experiments import common
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.mapping import Deployment
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(128), offered_gbps=40.0,
                       seed=2)


class TestSpecHelpers:
    def test_saturated_raises_load_only(self, spec):
        saturated = common.saturated(spec)
        assert saturated.offered_gbps == common.SATURATING_GBPS
        assert saturated.size_law is spec.size_law
        assert saturated.seed == spec.seed

    def test_at_load(self, spec):
        loaded = common.at_load(spec, 3.5)
        assert loaded.offered_gbps == 3.5
        assert loaded.protocol == spec.protocol


class TestDedicatedCoreMapping:
    def test_each_element_gets_distinct_core_until_wrap(self):
        graph = ServiceFunctionChain(
            [make_nf("probe")]
        ).concatenated_graph()
        mapping = common.dedicated_core_mapping(graph)
        cores = [p.host for _n, p in mapping.items()]
        assert len(set(cores)) == len(cores)

    def test_wraps_when_graph_larger_than_pool(self):
        graph = ServiceFunctionChain(
            [make_nf(name) for name in ("probe", "lb", "firewall") * 3]
        ).concatenated_graph()
        pool = set(PlatformSpec().cpu_processor_ids())
        assert len(graph) > len(pool)
        mapping = common.dedicated_core_mapping(graph)
        cores = {p.host for _n, p in mapping.items()}
        assert cores == pool

    def test_offload_ratio_applied(self):
        graph = ServiceFunctionChain(
            [make_nf("ipsec")]
        ).concatenated_graph()
        mapping = common.dedicated_core_mapping(graph, offload_ratio=0.6)
        ratios = {p.offload_total for _n, p in mapping.items()
                  if p.offloaded}
        assert ratios == {0.6}


class TestMeasure:
    def test_two_pass_measurement(self, engine, spec):
        graph = ServiceFunctionChain(
            [make_nf("probe")]
        ).concatenated_graph()
        deployment = Deployment(
            graph, common.dedicated_core_mapping(graph)
        )
        result = common.measure(engine.session(deployment), spec,
                                batch_size=16, batch_count=30)
        assert result.throughput_gbps > 0
        assert result.latency_ms > 0
        assert result.latency_p99_ms >= result.latency_ms * 0.5
        assert result.latency_variance >= 0

    def test_latency_measured_below_capacity(self, engine, spec):
        """The latency pass must not be the saturation pass."""
        graph = ServiceFunctionChain(
            [make_nf("ipsec")]
        ).concatenated_graph()
        deployment = Deployment(
            graph, common.dedicated_core_mapping(graph)
        )
        result = common.measure(engine.session(deployment), spec,
                                batch_size=16, batch_count=30)
        saturated_report = result.report
        assert result.latency_ms < saturated_report.latency.mean_ms


class TestFormatTable:
    def test_alignment_and_title(self):
        text = common.format_table(
            ["name", "value"],
            [["a", 1.5], ["longer-name", 20000.0]],
            title="My Table",
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert lines[1].startswith("name")
        assert "longer-name" in lines[4]
        # Column separator alignment: header and rows share widths.
        assert len(lines[1]) == len(lines[2])

    def test_float_formatting(self):
        text = common.format_table(["v"], [[3.14159], [12345.678]])
        assert "3.142" in text
        assert "12345.7" in text
