"""Golden parity: the event kernel vs the frozen pre-refactor engine.

The kernel rewrite (``repro.sim.kernel``) must be behavior-preserving:
on identical deployments, traffic, and branch profiles it must produce
the same reports as the legacy engine kept verbatim in
``repro.sim.legacy`` — every scalar and every per-processor total
within 1e-9 relative tolerance.

Three seeded scenarios (``GOLDEN_SCENARIOS`` in ``tests/builders.py``)
cover the interesting regimes:

- a CPU-only multi-core chain driven by a measured branch profile
  (merges, splits, drops, no GPU paths);
- a partially offloaded chain (ratio 0.6) with the persistent kernel
  and stateful reassembly (re-merge + reassembly paths);
- a branchy multi-GPU deployment mixing full and partial offload
  across two GPUs (PCIe lanes, boundary-crossing flags, fan-out).

The quick versions run in tier-1, each scenario at its own load and
saturated at 200 Gbps; ``@pytest.mark.slow`` variants replay the same
scenarios at longer horizons.
"""

import dataclasses

import pytest
from builders import GOLDEN_SCENARIOS as SCENARIOS
from builders import partial_offload_scenario

from repro.sim.engine import SimulationEngine
from repro.sim.legacy import LegacySimulationEngine
from repro.sim.tracing import EventRecorder
from repro.traffic.arrivals import ConstantRate

REL = 1e-9


def assert_reports_match(new, old):
    assert new.name == old.name
    assert new.offered_gbps == pytest.approx(old.offered_gbps, rel=REL)
    assert new.delivered_packets == pytest.approx(
        old.delivered_packets, rel=REL)
    assert new.delivered_bytes == pytest.approx(
        old.delivered_bytes, rel=REL)
    assert new.dropped_packets == pytest.approx(
        old.dropped_packets, rel=REL, abs=1e-9)
    assert new.makespan_seconds == pytest.approx(
        old.makespan_seconds, rel=REL)
    assert new.throughput_gbps == pytest.approx(
        old.throughput_gbps, rel=REL)
    assert new.latency.samples == old.latency.samples
    for attr in ("mean", "p50", "p95", "p99", "max", "variance"):
        assert getattr(new.latency, attr) == pytest.approx(
            getattr(old.latency, attr), rel=REL, abs=1e-15), attr
    for attr in ("cpu_compute", "gpu_kernel", "kernel_launch",
                 "pcie_transfer", "batch_split", "batch_merge",
                 "duplication", "xor_merge", "reassembly"):
        assert getattr(new.overheads, attr) == pytest.approx(
            getattr(old.overheads, attr), rel=REL, abs=1e-15), attr
    assert set(new.processor_busy_seconds) == \
        set(old.processor_busy_seconds)
    for resource, busy in old.processor_busy_seconds.items():
        assert new.processor_busy_seconds[resource] == pytest.approx(
            busy, rel=REL, abs=1e-15), resource


def run_both(scenario, batch_size, batch_count, offered_gbps=None,
             **interference):
    deployment, spec, profile = SCENARIOS[scenario]()
    if offered_gbps is not None:
        spec = dataclasses.replace(spec, offered_gbps=offered_gbps)
    new = SimulationEngine().run(
        deployment, spec, batch_size=batch_size, batch_count=batch_count,
        branch_profile=profile, **interference,
    )
    old = LegacySimulationEngine().run(
        deployment, spec, batch_size=batch_size, batch_count=batch_count,
        branch_profile=profile, **interference,
    )
    return new, old


#: The quick inputs: each scenario at its own load over 60 batches,
#: and saturated at 200 Gbps over 300 batches, where the busiest lanes
#: commit about 1,200 slots and most placements fill gaps several
#: index blocks behind the tail.
QUICK_INPUTS = [
    *(pytest.param(scenario, None, 60, id=scenario)
      for scenario in sorted(SCENARIOS)),
    *(pytest.param(scenario, 200.0, 300, id=f"{scenario}-saturated")
      for scenario in sorted(SCENARIOS)),
]


@pytest.mark.parametrize("scenario,offered_gbps,batch_count",
                         QUICK_INPUTS)
def test_golden_parity_quick(scenario, offered_gbps, batch_count):
    new, old = run_both(scenario, batch_size=32, batch_count=batch_count,
                        offered_gbps=offered_gbps)
    assert_reports_match(new, old)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden_parity_with_interference(scenario):
    new, old = run_both(scenario, batch_size=32, batch_count=40,
                        cpu_time_inflation=1.3,
                        co_run_pressure_bytes=2e6,
                        gpu_corun_kernels=2)
    assert_reports_match(new, old)


def test_golden_parity_session_reuse():
    """A reused session stays in parity run after run."""
    deployment, spec, profile = partial_offload_scenario()
    session = SimulationEngine().session(deployment)
    legacy = LegacySimulationEngine()
    for batch_count in (20, 45, 60):
        new = session.run(spec, batch_size=32, batch_count=batch_count,
                          branch_profile=profile)
        old = legacy.run(deployment, spec, batch_size=32,
                         batch_count=batch_count, branch_profile=profile)
        assert_reports_match(new, old)


@pytest.mark.slow
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden_parity_long_horizon(scenario):
    new, old = run_both(scenario, batch_size=64, batch_count=1500)
    assert_reports_match(new, old)


# ---------------------------------------------------------------------------
# Arrival-process backward compatibility: ConstantRate through the new
# pluggable-clock plumbing must be indistinguishable — byte-for-byte in
# the event stream — from the pre-refactor uniform clock.
# ---------------------------------------------------------------------------

class TestConstantRateParity:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_explicit_constant_rate_matches_legacy(self, scenario):
        """Kernel + explicit ConstantRate vs the frozen legacy engine:
        identical reports and a byte-identical event stream."""
        deployment, spec, profile = SCENARIOS[scenario]()
        explicit = dataclasses.replace(spec, arrivals=ConstantRate())
        new_recorder, old_recorder = EventRecorder(), EventRecorder()
        new = SimulationEngine().run(
            deployment, explicit, batch_size=32, batch_count=60,
            branch_profile=profile, recorder=new_recorder,
        )
        old = LegacySimulationEngine().run(
            deployment, spec, batch_size=32, batch_count=60,
            branch_profile=profile, recorder=old_recorder,
        )
        assert_reports_match(new, old)
        assert new_recorder.to_json() == old_recorder.to_json()

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_default_clock_is_explicit_constant_rate(self, scenario):
        """A spec with no process and one with ConstantRate() take the
        exact same path: equal event bytes and equal (==) metrics."""
        deployment, spec, profile = SCENARIOS[scenario]()
        explicit = dataclasses.replace(spec, arrivals=ConstantRate())
        recorder_default, recorder_explicit = (EventRecorder(),
                                               EventRecorder())
        engine = SimulationEngine()
        default_report = engine.run(
            deployment, spec, batch_size=32, batch_count=60,
            branch_profile=profile, recorder=recorder_default,
        )
        explicit_report = engine.run(
            deployment, explicit, batch_size=32, batch_count=60,
            branch_profile=profile, recorder=recorder_explicit,
        )
        assert recorder_default.to_json() == recorder_explicit.to_json()
        assert default_report.makespan_seconds \
            == explicit_report.makespan_seconds
        assert default_report.latency_samples \
            == explicit_report.latency_samples
        assert default_report.max_queue_depth \
            == explicit_report.max_queue_depth
        assert default_report.processor_busy_seconds \
            == explicit_report.processor_busy_seconds

    def test_fig06_rows_exact_with_explicit_constant_rate(self,
                                                          monkeypatch):
        """The fig06 point function produces float-equal rows whether
        its spec carries no process or an explicit ConstantRate."""
        from repro.experiments import fig06_offload_ratio as fig06
        baseline = fig06._measure_point("ipsec", 0.6, 256, 32, 30)
        real_spec = fig06.TrafficSpec

        def with_constant(**kwargs):
            return real_spec(arrivals=ConstantRate(), **kwargs)

        monkeypatch.setattr(fig06, "TrafficSpec", with_constant)
        explicit = fig06._measure_point("ipsec", 0.6, 256, 32, 30)
        assert baseline == explicit

    def test_fig08_rows_exact_with_explicit_constant_rate(self,
                                                          monkeypatch):
        """Same exact-row check on the fig08 characterization path."""
        from repro.experiments import fig08_characterization as fig08
        args = ("ids", "cpu", "partial_match", 64, 256, 30)
        baseline = fig08._batch_point(*args)
        real_spec = fig08.TrafficSpec

        def with_constant(**kwargs):
            return real_spec(arrivals=ConstantRate(), **kwargs)

        monkeypatch.setattr(fig08, "TrafficSpec", with_constant)
        explicit = fig08._batch_point(*args)
        assert baseline == explicit


# ---------------------------------------------------------------------------
# Overload backward compatibility: a no-op OverloadConfig through the
# overload plumbing must be indistinguishable — byte-for-byte in the
# event stream — from the unprotected kernel and the frozen legacy
# engine (the kernel normalizes it to ``overload=None``).
# ---------------------------------------------------------------------------

class TestOverloadOffParity:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_noop_config_matches_legacy(self, scenario):
        """Kernel + default (all-None) OverloadConfig vs the frozen
        legacy engine: identical reports, byte-identical events."""
        from repro.overload import OverloadConfig

        deployment, spec, profile = SCENARIOS[scenario]()
        new_recorder, old_recorder = EventRecorder(), EventRecorder()
        new = SimulationEngine().run(
            deployment, spec, batch_size=32, batch_count=60,
            branch_profile=profile, recorder=new_recorder,
            overload=OverloadConfig(),
        )
        old = LegacySimulationEngine().run(
            deployment, spec, batch_size=32, batch_count=60,
            branch_profile=profile, recorder=old_recorder,
        )
        assert_reports_match(new, old)
        assert new_recorder.to_json() == old_recorder.to_json()

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_noop_config_is_default_path(self, scenario):
        """``overload=None`` and a default OverloadConfig take the
        exact same path: equal event bytes and equal (==) metrics."""
        from repro.overload import OverloadConfig

        deployment, spec, profile = SCENARIOS[scenario]()
        recorder_none, recorder_noop = EventRecorder(), EventRecorder()
        engine = SimulationEngine()
        none_report = engine.run(
            deployment, spec, batch_size=32, batch_count=60,
            branch_profile=profile, recorder=recorder_none,
        )
        noop_report = engine.run(
            deployment, spec, batch_size=32, batch_count=60,
            branch_profile=profile, recorder=recorder_noop,
            overload=OverloadConfig(),
        )
        assert recorder_none.to_json() == recorder_noop.to_json()
        assert none_report.makespan_seconds \
            == noop_report.makespan_seconds
        assert none_report.latency_samples \
            == noop_report.latency_samples
        assert none_report.max_queue_depth \
            == noop_report.max_queue_depth
        assert none_report.processor_busy_seconds \
            == noop_report.processor_busy_seconds
        assert none_report.dropped_packets == noop_report.dropped_packets

    def _patch_noop_overload(self, monkeypatch):
        """Force every kernel run through a default OverloadConfig."""
        from repro.overload import OverloadConfig
        from repro.sim.kernel import SimulationSession

        real_run = SimulationSession.run

        def with_noop(self, *args, **kwargs):
            kwargs.setdefault("overload", OverloadConfig())
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(SimulationSession, "run", with_noop)

    def test_fig06_rows_exact_with_noop_overload(self, monkeypatch):
        """The fig06 point function produces float-equal rows with a
        no-op overload config injected under every simulation run."""
        from repro.experiments import fig06_offload_ratio as fig06
        baseline = fig06._measure_point("ipsec", 0.6, 256, 32, 30)
        self._patch_noop_overload(monkeypatch)
        protected = fig06._measure_point("ipsec", 0.6, 256, 32, 30)
        assert baseline == protected

    def test_fig08_rows_exact_with_noop_overload(self, monkeypatch):
        """Same exact-row check on the fig08 characterization path."""
        from repro.experiments import fig08_characterization as fig08
        args = ("ids", "cpu", "partial_match", 64, 256, 30)
        baseline = fig08._batch_point(*args)
        self._patch_noop_overload(monkeypatch)
        protected = fig08._batch_point(*args)
        assert baseline == protected
