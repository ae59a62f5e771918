"""Hypothesis properties of the arrival-process layer (run with
``-m property``).

Four contracts every :class:`~repro.traffic.arrivals.ArrivalProcess`
must honor, over arbitrary process parameters:

- **determinism**: the same process (same object or a freshly built
  equal one) always emits the identical float sequence — the property
  the sharded sweep runner's byte-determinism rests on;
- **well-formedness**: exactly ``batch_count`` finite, non-decreasing
  arrivals starting at 0.0;
- **conservation**: delivered + dropped packets equals the injected
  count under every process, even composed with a seeded fault
  timeline — burstiness redistributes arrivals, it never loses or
  duplicates batches;
- **mean-rate convergence**: sampled processes (Poisson, MMPP) are
  rate-normalized, so the empirical mean inter-batch gap converges to
  the spec's mean batch gap over long runs.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultTimeline
from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import SimulationEngine
from repro.sim.mapping import Deployment, Mapping
from repro.traffic.arrivals import (
    MMPP,
    ConstantRate,
    DiurnalRamp,
    Poisson,
    mean_batch_gap,
)
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

pytestmark = pytest.mark.property


def make_spec(gbps, process=None):
    return TrafficSpec(size_law=FixedSize(256), offered_gbps=gbps,
                       seed=7, arrivals=process)


@st.composite
def arrival_processes(draw):
    kind = draw(st.sampled_from(["constant", "poisson", "mmpp",
                                 "diurnal"]))
    if kind == "constant":
        return ConstantRate()
    if kind == "poisson":
        return Poisson(seed=draw(st.integers(0, 10_000)))
    if kind == "mmpp":
        burst = draw(st.floats(1.0, 5.0))
        duty = min(draw(st.floats(0.05, 0.9)), 0.999 / burst)
        return MMPP(burst_factor=burst, duty_cycle=duty,
                    cycle_batches=draw(st.floats(5.0, 120.0)),
                    seed=draw(st.integers(0, 10_000)))
    return DiurnalRamp(trough_ratio=draw(st.floats(0.1, 1.0)),
                       period_batches=draw(st.floats(20.0, 400.0)),
                       phase=draw(st.floats(0.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(process=arrival_processes(),
       gbps=st.floats(5.0, 120.0),
       batch_count=st.integers(1, 200),
       batch_size=st.sampled_from([16, 32, 64, 256]))
def test_same_process_same_sequence(process, gbps, batch_count,
                                    batch_size):
    spec = make_spec(gbps)
    first = process.batch_arrivals(batch_count, batch_size, spec)
    second = process.batch_arrivals(batch_count, batch_size, spec)
    assert first == second
    # A freshly constructed equal process is just as deterministic.
    import copy
    rebuilt = copy.deepcopy(process)
    assert rebuilt.batch_arrivals(batch_count, batch_size, spec) \
        == first


@settings(max_examples=60, deadline=None)
@given(process=arrival_processes(),
       gbps=st.floats(5.0, 120.0),
       batch_count=st.integers(1, 200),
       batch_size=st.sampled_from([16, 32, 64, 256]))
def test_arrivals_well_formed(process, gbps, batch_count, batch_size):
    spec = make_spec(gbps)
    arrivals = process.batch_arrivals(batch_count, batch_size, spec)
    assert len(arrivals) == batch_count
    assert arrivals[0] == 0.0
    assert all(math.isfinite(a) for a in arrivals)
    assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
    horizon = process.horizon(arrivals, batch_size, spec)
    assert math.isfinite(horizon) and horizon >= arrivals[-1]


@settings(max_examples=40, deadline=None)
@given(process=arrival_processes(),
       epoch=st.integers(1, 50))
def test_for_epoch_is_deterministic_and_decorrelated(process, epoch):
    spec = make_spec(40.0)
    shifted = process.for_epoch(epoch)
    again = process.for_epoch(epoch)
    assert shifted == again
    assert shifted.batch_arrivals(40, 32, spec) \
        == again.batch_arrivals(40, 32, spec)
    # Epoch 0 is always the process itself.
    assert process.for_epoch(0) == process


@settings(max_examples=15, deadline=None)
@given(process=arrival_processes(),
       fault_seed=st.integers(0, 10_000),
       fault_rate=st.floats(0.5, 3.0))
def test_conservation_under_faults(process, fault_seed, fault_rate):
    """delivered + dropped == injected for every process, with a
    seeded device-fault timeline composed on the service side."""
    batch_size, batch_count = 32, 30
    spec = make_spec(40.0, process=process)
    graph = ServiceFunctionChain(
        [make_nf("ipsec")]).concatenated_graph()
    mapping = Mapping.fixed_ratio(
        graph, 0.6, cores=[DEFAULT_HOST_DEVICE, "cpu1"], gpus=["gpu0"])
    deployment = Deployment(graph, mapping, name="arrival-faults")
    engine = SimulationEngine()
    horizon = (batch_count * batch_size * spec.mean_packet_interval()
               * 4.0)
    faults = FaultTimeline.seeded(fault_seed, ["gpu0"], horizon,
                                  fault_rate=fault_rate)
    report = engine.session(deployment).run(
        spec, batch_size=batch_size, batch_count=batch_count,
        faults=faults,
    )
    injected = float(batch_size * batch_count)
    accounted = report.delivered_packets + report.dropped_packets
    assert accounted == pytest.approx(injected, rel=1e-9)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), gbps=st.floats(10.0, 80.0))
def test_poisson_mean_rate_converges(seed, gbps):
    spec = make_spec(gbps)
    batch_size, batch_count = 64, 4000
    gap = mean_batch_gap(batch_size, spec)
    arrivals = Poisson(seed=seed).batch_arrivals(batch_count,
                                                 batch_size, spec)
    empirical = arrivals[-1] / (batch_count - 1)
    assert empirical == pytest.approx(gap, rel=0.10)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000),
       burst=st.floats(1.5, 4.0),
       gbps=st.floats(10.0, 80.0))
def test_mmpp_mean_rate_converges(seed, burst, gbps):
    spec = make_spec(gbps)
    batch_size, batch_count = 64, 6000
    gap = mean_batch_gap(batch_size, spec)
    process = MMPP(burst_factor=burst, duty_cycle=0.9 / burst,
                   cycle_batches=30.0, seed=seed)
    arrivals = process.batch_arrivals(batch_count, batch_size, spec)
    empirical = arrivals[-1] / (batch_count - 1)
    # The modulating chain correlates samples, so convergence is
    # slower than Poisson; ~200 cycles still pins the mean to ~25 %.
    assert empirical == pytest.approx(gap, rel=0.25)


@settings(max_examples=20, deadline=None)
@given(gbps=st.floats(10.0, 80.0),
       trough=st.floats(0.2, 1.0),
       period=st.floats(50.0, 200.0))
def test_diurnal_mean_rate_converges(gbps, trough, period):
    """Whole cycles of the deterministic ramp average to the mean."""
    spec = make_spec(gbps)
    batch_size = 64
    gap = mean_batch_gap(batch_size, spec)
    process = DiurnalRamp(trough_ratio=trough, period_batches=period)
    batch_count = int(period) * 20
    arrivals = process.batch_arrivals(batch_count, batch_size, spec)
    empirical = arrivals[-1] / (batch_count - 1)
    assert empirical == pytest.approx(gap, rel=0.20)
