"""Unit tests for the batch arrival processes."""

import dataclasses

import pytest

from repro.traffic.arrivals import (
    CONSTANT_RATE,
    MMPP,
    ConstantRate,
    DiurnalRamp,
    OnOffBursty,
    Poisson,
    attach_arrivals,
    mean_batch_gap,
    peak_rate_gbps,
)
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import SimulationEngine
from repro.sim.mapping import Deployment, Mapping
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

BATCH = 32


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                       seed=3)


class TestTrafficSpecField:
    def test_default_is_no_process(self, spec):
        assert spec.arrivals is None
        assert spec.arrival_process == CONSTANT_RATE

    def test_explicit_process_wins(self, spec):
        poisson = Poisson(seed=8)
        carrying = dataclasses.replace(spec, arrivals=poisson)
        assert carrying.arrival_process is poisson

    def test_non_process_rejected(self):
        with pytest.raises(TypeError):
            TrafficSpec(size_law=FixedSize(256), arrivals="poisson")


class TestConstantRate:
    def test_matches_historical_clock_bitwise(self, spec):
        gap = BATCH * spec.mean_packet_interval()
        arrivals = ConstantRate().batch_arrivals(40, BATCH, spec)
        assert arrivals == [i * gap for i in range(40)]

    def test_horizon_is_legacy_makespan_floor(self, spec):
        gap = BATCH * spec.mean_packet_interval()
        process = ConstantRate()
        arrivals = process.batch_arrivals(40, BATCH, spec)
        assert process.horizon(arrivals, BATCH, spec) == gap * 40

    def test_for_epoch_is_identity(self):
        process = ConstantRate()
        assert process.for_epoch(7) is process


#: ``horizon`` of 1, 40 and 200 batches of ``BATCH`` under the
#: ``spec`` fixture, recorded when ``horizon`` drew the arrivals itself.
HORIZONS = {
    ConstantRate(): ["0x1.e1094d643f784p-20", "0x1.2ca5d05ea7ab2p-14",
                     "0x1.77cf44765195fp-12"],
    Poisson(seed=8): ["0x1.e1094d643f784p-20", "0x1.32ad1fb82a9e3p-14",
                      "0x1.7c92897ff811ep-12"],
    MMPP(seed=9): ["0x1.e1094d643f784p-20", "0x1.2024562175416p-13",
                   "0x1.4d069fa1088e4p-12"],
    DiurnalRamp(): ["0x1.e1094d643f784p-20", "0x1.cc599b66d6af3p-15",
                    "0x1.77cb5d961d033p-12"],
}


class TestOneDrawPerRun:
    @pytest.mark.parametrize("process", list(HORIZONS),
                             ids=lambda p: type(p).__name__)
    def test_horizon_of_the_drawn_arrivals(self, process, spec):
        horizons = [
            process.horizon(process.batch_arrivals(count, BATCH, spec),
                            BATCH, spec).hex()
            for count in (1, 40, 200)]
        assert horizons == HORIZONS[process]

    @pytest.mark.parametrize("process", list(HORIZONS),
                             ids=lambda p: type(p).__name__)
    def test_a_run_draws_its_arrivals_once(self, process, spec,
                                           monkeypatch):
        draws = []
        draw = type(process).batch_arrivals

        def counted(self, *args):
            draws.append(args)
            return draw(self, *args)

        monkeypatch.setattr(type(process), "batch_arrivals", counted)
        graph = ServiceFunctionChain([make_nf("nat")]).concatenated_graph()
        session = SimulationEngine().session(
            Deployment(graph, Mapping.all_cpu(graph, cores=["cpu0"])))
        session.run(dataclasses.replace(spec, arrivals=process),
                    batch_size=BATCH, batch_count=20)
        assert len(draws) == 1


class TestMMPPValidation:
    def test_burst_factor_below_one(self):
        with pytest.raises(ValueError, match="burst_factor"):
            MMPP(burst_factor=0.5)

    def test_duty_cycle_bounds(self):
        with pytest.raises(ValueError, match="duty_cycle"):
            MMPP(duty_cycle=0.0)
        with pytest.raises(ValueError, match="duty_cycle"):
            MMPP(duty_cycle=1.0)

    def test_mean_preserving_constraint(self):
        # duty * burst > 1 would need a negative OFF rate.
        with pytest.raises(ValueError, match="negative OFF rate"):
            MMPP(burst_factor=5.0, duty_cycle=0.5)

    def test_silent_off_corner_allowed(self, spec):
        onoff = OnOffBursty(burst_factor=4.0, duty_cycle=0.25)
        arrivals = onoff.batch_arrivals(60, BATCH, spec)
        assert len(arrivals) == 60
        assert arrivals == sorted(arrivals)

    def test_cycle_batches_positive(self):
        with pytest.raises(ValueError, match="cycle_batches"):
            MMPP(cycle_batches=0.0)

    def test_onoff_alias(self):
        assert OnOffBursty is MMPP


class TestForEpoch:
    def test_seeded_processes_decorrelate(self, spec):
        process = Poisson(seed=5)
        epoch1 = process.for_epoch(1)
        epoch2 = process.for_epoch(2)
        assert epoch1 != process and epoch1 != epoch2
        assert epoch1.batch_arrivals(30, BATCH, spec) \
            != epoch2.batch_arrivals(30, BATCH, spec)

    def test_epoch_zero_is_self(self):
        process = MMPP(seed=7)
        assert process.for_epoch(0) == process

    def test_diurnal_advances_phase(self):
        ramp = DiurnalRamp(phase=0.1, phase_per_epoch=0.25)
        assert ramp.for_epoch(2).phase == pytest.approx(0.6)
        assert ramp.for_epoch(0) is ramp


class TestAttachArrivals:
    def test_none_process_is_identity(self, spec):
        assert attach_arrivals(spec, None, 3) is spec

    def test_attaches_epoch_variant(self, spec):
        process = Poisson(seed=5)
        attached = attach_arrivals(spec, process, 2)
        assert attached.arrivals == process.for_epoch(2)
        assert attached.offered_gbps == spec.offered_gbps

    def test_spec_process_wins(self, spec):
        own = MMPP(seed=1)
        carrying = dataclasses.replace(spec, arrivals=own)
        attached = attach_arrivals(carrying, Poisson(seed=2), 4)
        assert attached.arrivals is own


class TestDiurnalRamp:
    def test_validation(self):
        with pytest.raises(ValueError, match="trough_ratio"):
            DiurnalRamp(trough_ratio=0.0)
        with pytest.raises(ValueError, match="period_batches"):
            DiurnalRamp(period_batches=-1.0)

    def test_rate_swings_within_bounds(self, spec):
        gap = mean_batch_gap(BATCH, spec)
        ramp = DiurnalRamp(trough_ratio=0.25, period_batches=50.0)
        arrivals = ramp.batch_arrivals(200, BATCH, spec)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        # Instantaneous gap stays within the configured swing.
        assert min(gaps) >= gap / (2 - 0.25) - 1e-12
        assert max(gaps) <= gap / 0.25 + 1e-12


class TestPeakRate:
    def test_constant_rate_reports_offered(self, spec):
        arrivals = ConstantRate().batch_arrivals(50, BATCH, spec)
        peak = peak_rate_gbps(arrivals, BATCH, spec)
        assert peak == pytest.approx(spec.offered_gbps, rel=1e-9)

    def test_bursty_peak_exceeds_mean(self, spec):
        process = MMPP(burst_factor=4.0, duty_cycle=0.25, seed=3)
        arrivals = process.batch_arrivals(200, BATCH, spec)
        peak = peak_rate_gbps(arrivals, BATCH, spec)
        assert peak > spec.offered_gbps * 1.5

    def test_degenerate_schedules_fall_back(self, spec):
        assert peak_rate_gbps([], BATCH, spec) == spec.offered_gbps
        assert peak_rate_gbps([0.0], BATCH, spec) == spec.offered_gbps
        assert peak_rate_gbps([0.0] * 10, BATCH, spec) \
            == spec.offered_gbps

    def test_window_must_span(self, spec):
        with pytest.raises(ValueError, match="window_batches"):
            peak_rate_gbps([0.0, 1.0], BATCH, spec, window_batches=1)
