"""Unit tests for the baseline systems."""

import pytest

from repro.baselines.fastclick import FastClickBaseline
from repro.baselines.nba import NBABaseline
from repro.baselines.policies import (
    CPUOnlyBaseline,
    ExhaustiveOptimalBaseline,
    FixedRatioBaseline,
    GPUOnlyBaseline,
)
from repro.hw.platform import PlatformSpec
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0, seed=4)


@pytest.fixture
def sfc():
    return ServiceFunctionChain([make_nf("ipsec"), make_nf("ipv4")])


class TestCPUOnly:
    def test_no_gpu_in_mapping(self, sfc, spec):
        deployment = CPUOnlyBaseline().deploy(sfc, spec)
        for _node, placement in deployment.mapping.items():
            assert not placement.offloaded

    def test_deployment_named(self, sfc, spec):
        deployment = CPUOnlyBaseline().deploy(sfc, spec)
        assert deployment.name.startswith("cpu-only:")


class TestFixedRatio:
    def test_ratio_applied_to_offloadables(self, sfc, spec):
        deployment = FixedRatioBaseline(0.7).deploy(sfc, spec)
        ratios = {p.offload_total
                  for _n, p in deployment.mapping.items()
                  if p.offloaded}
        assert ratios == {0.7}

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            FixedRatioBaseline(1.2)

    def test_gpu_only_is_ratio_one(self, sfc, spec):
        deployment = GPUOnlyBaseline().deploy(sfc, spec)
        ratios = {p.offload_total
                  for _n, p in deployment.mapping.items()
                  if p.offloaded}
        assert ratios == {1.0}
        assert deployment.name.startswith("gpu-only:")

    def test_non_persistent_by_default(self, sfc, spec):
        assert not GPUOnlyBaseline().deploy(sfc, spec).persistent_kernel

    def test_persistent_override(self, sfc, spec):
        baseline = GPUOnlyBaseline(persistent_kernel=True)
        assert baseline.deploy(sfc, spec).persistent_kernel


class TestFastClick:
    def test_is_cpu_only(self, sfc, spec):
        deployment = FastClickBaseline().deploy(sfc, spec)
        for _node, placement in deployment.mapping.items():
            assert not placement.offloaded
        assert deployment.name.startswith("fastclick:")


class TestNBA:
    def test_offloads_heavy_elements(self, sfc, spec):
        deployment = NBABaseline().deploy(sfc, spec)
        offloaded = [n for n, p in deployment.mapping.items()
                     if p.offloaded]
        assert any("encrypt" in n for n in offloaded)

    def test_never_offloads_stateful(self, spec):
        nat_sfc = ServiceFunctionChain([make_nf("nat")])
        deployment = NBABaseline().deploy(nat_sfc, spec)
        for node, placement in deployment.mapping.items():
            if deployment.graph.element(node).is_stateful:
                assert not placement.offloaded

    def test_ratios_quantized(self, sfc, spec):
        deployment = NBABaseline().deploy(sfc, spec)
        for _node, placement in deployment.mapping.items():
            ratio = placement.offload_total
            assert (ratio * 10) == pytest.approx(round(ratio * 10))

    def test_per_batch_launches(self, sfc, spec):
        assert not NBABaseline().deploy(sfc, spec).persistent_kernel


class TestExhaustiveOptimal:
    def test_finds_at_least_cpu_only_throughput(self, spec):
        from repro.sim.engine import SimulationEngine
        platform = PlatformSpec()
        engine = SimulationEngine(platform)
        sfc = ServiceFunctionChain([make_nf("ipsec")])
        optimal = ExhaustiveOptimalBaseline(
            platform=platform, grid_step=0.25, refine_passes=0,
            batch_count=20,
        )
        deployment = optimal.deploy(sfc, spec)
        optimal_capacity = engine.session(deployment).measure_capacity(
            spec, batch_size=32, batch_count=30)
        cpu = CPUOnlyBaseline(platform=platform).deploy(
            ServiceFunctionChain([make_nf("ipsec")]), spec)
        cpu_capacity = engine.session(cpu).measure_capacity(
            spec, batch_size=32, batch_count=30)
        assert optimal_capacity >= 0.9 * cpu_capacity

    def test_best_ratios_recorded(self, sfc, spec):
        optimal = ExhaustiveOptimalBaseline(grid_step=0.5,
                                            refine_passes=0,
                                            batch_count=10)
        optimal.deploy(sfc, spec)
        assert optimal.best_ratios
