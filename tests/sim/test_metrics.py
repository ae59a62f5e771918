"""Unit tests for simulation metrics."""

import pytest

from repro.sim.metrics import (
    SLO,
    LatencyStats,
    OverheadBreakdown,
    ThroughputLatencyReport,
)


class TestLatencyStats:
    def test_empty_samples(self):
        stats = LatencyStats.from_samples([])
        assert stats.mean == 0.0
        assert stats.samples == 0

    def test_single_sample(self):
        stats = LatencyStats.from_samples([0.5])
        assert stats.mean == 0.5
        assert stats.p50 == 0.5
        assert stats.p99 == 0.5
        assert stats.variance == 0.0

    def test_percentile_ordering(self):
        stats = LatencyStats.from_samples([i / 100 for i in range(100)])
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.max

    def test_mean_and_variance(self):
        stats = LatencyStats.from_samples([1.0, 3.0])
        assert stats.mean == 2.0
        assert stats.variance == 1.0

    def test_unit_conversions(self):
        stats = LatencyStats.from_samples([0.001])
        assert stats.mean_ms == pytest.approx(1.0)
        assert stats.mean_us == pytest.approx(1000.0)


class TestOverheadBreakdown:
    def test_fractions_sum_to_one(self):
        breakdown = OverheadBreakdown(cpu_compute=3.0, gpu_kernel=1.0,
                                      batch_split=1.0)
        assert sum(breakdown.fractions().values()) == pytest.approx(1.0)

    def test_empty_breakdown_has_no_fractions(self):
        assert OverheadBreakdown().fractions() == {}

    def test_reorganization_fraction(self):
        breakdown = OverheadBreakdown(cpu_compute=2.0, batch_split=1.0,
                                      xor_merge=1.0)
        assert breakdown.reorganization_fraction == pytest.approx(0.5)

    def test_offloading_fraction(self):
        breakdown = OverheadBreakdown(cpu_compute=2.0, kernel_launch=1.0,
                                      pcie_transfer=1.0)
        assert breakdown.offloading_fraction == pytest.approx(0.5)


class TestReport:
    def _report(self, **overrides):
        defaults = dict(
            name="test",
            offered_gbps=10.0,
            delivered_packets=1000.0,
            delivered_bytes=64_000.0,
            dropped_packets=0.0,
            makespan_seconds=1e-3,
            latency=LatencyStats.from_samples([1e-4]),
        )
        defaults.update(overrides)
        return ThroughputLatencyReport(**defaults)

    def test_throughput_gbps(self):
        report = self._report()
        assert report.throughput_gbps == pytest.approx(
            64_000 * 8 / 1e-3 / 1e9)

    def test_throughput_mpps(self):
        assert self._report().throughput_mpps == pytest.approx(1.0)

    def test_zero_makespan_safe(self):
        report = self._report(makespan_seconds=0.0)
        assert report.throughput_gbps == 0.0
        assert report.utilization() == {}

    def test_drop_rate(self):
        report = self._report(dropped_packets=1000.0)
        assert report.drop_rate == pytest.approx(0.5)

    def test_drop_rate_empty(self):
        report = self._report(delivered_packets=0.0, dropped_packets=0.0)
        assert report.drop_rate == 0.0

    def test_utilization(self):
        report = self._report(processor_busy_seconds={"cpu0": 5e-4})
        assert report.utilization()["cpu0"] == pytest.approx(0.5)

    def test_summary_mentions_name(self):
        assert "test" in self._report().summary()

    def test_bottleneck_processor_picks_max_busy(self):
        report = self._report(processor_busy_seconds={
            "cpu0": 1e-4, "gpu0": 5e-4, "pcie:gpu0:h2d": 3e-4,
        })
        assert report.bottleneck_processor() == "gpu0"

    def test_bottleneck_ties_break_deterministically(self):
        report = self._report(processor_busy_seconds={
            "cpu1": 5e-4, "cpu0": 5e-4,
        })
        assert report.bottleneck_processor() == "cpu0"

    def test_bottleneck_none_when_idle(self):
        assert self._report().bottleneck_processor() is None

    def test_total_queue_wait(self):
        report = self._report(processor_queue_wait_seconds={
            "cpu0": 2e-4, "gpu0": 3e-4,
        })
        assert report.total_queue_wait_seconds == pytest.approx(5e-4)

    def test_queue_wait_fractions(self):
        report = self._report(processor_queue_wait_seconds={
            "cpu0": 1e-4, "gpu0": 3e-4, "cpu1": 0.0,
        })
        fractions = report.queue_wait_fractions()
        assert fractions["cpu0"] == pytest.approx(0.25)
        assert fractions["gpu0"] == pytest.approx(0.75)
        assert "cpu1" not in fractions  # idle resources are elided

    def test_queue_wait_fractions_empty_without_waits(self):
        assert self._report().queue_wait_fractions() == {}


class TestLatencyPercentile:
    def _report(self, samples=(), **overrides):
        samples = sorted(samples)
        defaults = dict(
            name="pct",
            offered_gbps=10.0,
            delivered_packets=float(len(samples) or 1),
            delivered_bytes=64_000.0,
            dropped_packets=0.0,
            makespan_seconds=1e-3,
            latency=LatencyStats.from_samples(list(samples)),
            latency_samples=list(samples),
        )
        defaults.update(overrides)
        return ThroughputLatencyReport(**defaults)

    def test_out_of_range_raises(self):
        report = self._report([1e-4])
        with pytest.raises(ValueError):
            report.latency_percentile(-0.1)
        with pytest.raises(ValueError):
            report.latency_percentile(100.1)

    def test_empty_report_is_zero(self):
        report = self._report([])
        for percent in (0, 37.5, 50, 99, 100):
            assert report.latency_percentile(percent) == 0.0

    def test_single_batch_is_flat(self):
        report = self._report([2e-4])
        for percent in (0, 50, 95, 99, 100):
            assert report.latency_percentile(percent) == 2e-4

    def test_extremes_are_min_and_max(self):
        report = self._report([1e-4, 5e-4, 9e-4])
        assert report.latency_percentile(0) == 1e-4
        assert report.latency_percentile(100) == 9e-4
        assert report.latency_percentile(100) == report.latency.max

    def test_linear_interpolation(self):
        report = self._report([0.0, 1.0])
        assert report.latency_percentile(25) == pytest.approx(0.25)
        assert report.latency_percentile(50) == pytest.approx(0.5)

    def test_matches_precomputed_summary(self):
        samples = [i * 1e-5 for i in range(200)]
        report = self._report(samples)
        assert report.latency_percentile(50) == report.p50
        assert report.latency_percentile(95) == report.p95
        assert report.latency_percentile(99) == report.p99

    def test_legacy_fallback_without_samples(self):
        """Reports from older code paths carry only summary stats."""
        report = self._report([1e-4, 2e-4, 3e-4], latency_samples=[])
        assert report.latency_percentile(50) == report.latency.p50
        assert report.latency_percentile(99) == report.latency.p99
        assert report.latency_percentile(100) == report.latency.max
        with pytest.raises(ValueError):
            report.latency_percentile(42)


class TestSLO:
    def _report(self):
        return ThroughputLatencyReport(
            name="slo",
            offered_gbps=10.0,
            delivered_packets=90.0,
            delivered_bytes=64_000.0,
            dropped_packets=10.0,
            makespan_seconds=1e-3,
            latency=LatencyStats.from_samples([1e-4, 2e-4, 1e-3]),
        )

    def test_met_slo_has_no_violations(self):
        report = self._report()
        slo = SLO(p99_ms=10.0, mean_ms=10.0, max_drop_rate=0.5)
        assert report.check_slo(slo) == []
        assert report.meets_slo(slo)

    def test_unset_thresholds_are_ignored(self):
        assert self._report().meets_slo(SLO())

    def test_violations_name_the_metric(self):
        report = self._report()
        slo = SLO(p99_ms=1e-9, max_drop_rate=0.01)
        violations = report.check_slo(slo)
        assert [v.metric for v in violations] == ["p99_ms",
                                                  "drop_rate"]
        assert not report.meets_slo(slo)
        assert "p99_ms" in str(violations[0])

    def test_actual_and_limit_reported(self):
        report = self._report()
        (violation,) = report.check_slo(SLO(max_drop_rate=0.05))
        assert violation.actual == pytest.approx(0.1)
        assert violation.limit == 0.05


class TestQueueDepth:
    def _report(self, depths):
        return ThroughputLatencyReport(
            name="queues",
            offered_gbps=10.0,
            delivered_packets=100.0,
            delivered_bytes=64_000.0,
            dropped_packets=0.0,
            makespan_seconds=1e-3,
            latency=LatencyStats.from_samples([1e-4]),
            max_queue_depth=depths,
        )

    def test_deepest_queue_none_without_backlog(self):
        assert self._report({}).deepest_queue is None

    def test_deepest_queue_picks_max(self):
        report = self._report({"cpu0": 3, "gpu0": 9, "cpu1": 1})
        assert report.deepest_queue == "gpu0"

    def test_deepest_queue_ties_break_lexicographically(self):
        report = self._report({"cpu1": 4, "cpu0": 4})
        assert report.deepest_queue == "cpu0"


class TestSeededMMPPRegressionPin:
    """Tail percentiles of one small seeded MMPP run, pinned.

    Any change to the MMPP sampler, the kernel's arrival plumbing, or
    the percentile rule shows up here as a drifted number — bump the
    pins only with a deliberate engine-version decision.
    """

    def _report(self):
        from repro.nf.base import ServiceFunctionChain
        from repro.nf.catalog import make_nf
        from repro.sim.engine import SimulationEngine
        from repro.sim.mapping import Deployment, Mapping
        from repro.traffic.arrivals import MMPP
        from repro.traffic.distributions import FixedSize
        from repro.traffic.generator import TrafficSpec

        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=30.0,
                           seed=4, arrivals=MMPP(seed=99))
        graph = ServiceFunctionChain(
            [make_nf("firewall")]).concatenated_graph()
        deployment = Deployment(
            graph, Mapping.all_cpu(graph, cores=["cpu0", "cpu1"]),
            name="mmpp-pin",
        )
        return SimulationEngine().session(deployment).run(spec, batch_size=32,
                                                          batch_count=50)

    def test_tail_percentiles_pinned(self):
        report = self._report()
        assert report.latency_percentile(50) == pytest.approx(
            4.7898925532858426e-4, rel=1e-9)
        assert report.latency_percentile(95) == pytest.approx(
            9.96593471740082e-4, rel=1e-9)
        assert report.latency_percentile(99) == pytest.approx(
            1.0428171857274852e-3, rel=1e-9)

    def test_queue_depth_pinned(self):
        report = self._report()
        assert report.deepest_queue == "cpu0"
        assert report.max_queue_depth["cpu0"] == 43
