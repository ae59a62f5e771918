"""Hypothesis properties of the overload subsystem (run with
``-m property``).

Three invariant families over arbitrary knob combinations:

- **exact packet conservation**: ``offered == delivered + dropped``
  holds to the last bit (``==``, not approx — whole batches of
  power-of-two sizes are float-exact with the default branch profile)
  across bounded queues x drop policies x bursty arrivals x fault
  timelines x admission control;
- **breaker state machine**: for any failure/success/probe sequence
  the breaker is always in exactly one of closed/open/half-open, never
  admits while open before its cooldown, and its trip counter is
  monotone;
- **retry budget**: a permanently crashed device is dispatched at most
  ``1 + budget`` times per offload leg — the attempts ledger never
  exceeds the budget's bound;
- **purity**: a config carrying any controllers can be fingerprinted,
  a run repeated with the same inputs returns an equal report, and a
  chain of runs replays from any run's carried controller state.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import FaultTimeline, empty_timeline, single_crash
from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.overload import (
    CircuitBreaker,
    DeadlineDrop,
    HeadDrop,
    OverloadConfig,
    RetryPolicy,
    SLOFeedbackAdmission,
    TailDrop,
    TokenBucketAdmission,
)
from repro.overload.breaker import CLOSED, HALF_OPEN, OPEN, BreakerTable
from repro.runner import canonical_fingerprint
from repro.sim.engine import SimulationEngine
from repro.sim.mapping import Deployment, Mapping
from repro.traffic.arrivals import MMPP, Poisson
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

pytestmark = pytest.mark.property

BATCH_SIZE = 32
BATCH_COUNT = 40


def _cpu_session():
    graph = ServiceFunctionChain(
        [make_nf("firewall"), make_nf("ids")]
    ).concatenated_graph()
    mapping = Mapping.all_cpu(graph, cores=["cpu0", "cpu1"])
    return SimulationEngine().session(
        Deployment(graph, mapping, name="prop-overload-cpu"))


def _offload_session():
    graph = ServiceFunctionChain(
        [make_nf("ipsec"), make_nf("dpi")]
    ).concatenated_graph()
    mapping = Mapping.fixed_ratio(
        graph, 0.6, cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"],
        gpus=["gpu0", "gpu1"],
    )
    return SimulationEngine().session(
        Deployment(graph, mapping, persistent_kernel=True,
                   name="prop-overload-gpu"))


_POLICIES = st.sampled_from([TailDrop(), HeadDrop(),
                             DeadlineDrop(deadline_ms=1.0)])


@settings(max_examples=25, deadline=None)
@given(queue_limit=st.integers(min_value=1, max_value=16),
       policy=_POLICIES,
       load_gbps=st.floats(min_value=2.0, max_value=30.0),
       burst_seed=st.integers(min_value=0, max_value=10_000),
       bursty=st.booleans())
def test_exact_conservation_under_bounded_queues(queue_limit, policy,
                                                 load_gbps, burst_seed,
                                                 bursty):
    """offered == delivered + dropped, bit-exact, whatever the policy,
    limit, or (possibly saturating) bursty load."""
    session = _cpu_session()
    spec = TrafficSpec(size_law=FixedSize(256),
                       offered_gbps=load_gbps, seed=11)
    if bursty:
        spec = dataclasses.replace(
            spec, arrivals=MMPP(burst_factor=4.0, duty_cycle=0.25,
                                seed=burst_seed))
    config = OverloadConfig(queue_limit=queue_limit,
                            drop_policy=policy, slo_ms=2.0)
    report = session.run(spec, batch_size=BATCH_SIZE,
                         batch_count=BATCH_COUNT, overload=config)
    assert report.offered_packets \
        == report.delivered_packets + report.dropped_packets
    assert report.conservation_error == 0.0


@settings(max_examples=20, deadline=None)
@given(queue_limit=st.integers(min_value=1, max_value=8),
       policy=_POLICIES,
       fault_seed=st.integers(min_value=0, max_value=10_000),
       fault_rate=st.floats(min_value=0.5, max_value=3.0),
       retry_budget=st.integers(min_value=0, max_value=3),
       rate_fraction=st.floats(min_value=0.3, max_value=1.0))
def test_exact_conservation_under_faults_and_overload(
        queue_limit, policy, fault_seed, fault_rate, retry_budget,
        rate_fraction):
    """The full gauntlet: seeded crash/degradation timelines, bounded
    queues, admission shedding, and circuit-broken retries together
    still account for every offered packet exactly."""
    session = _offload_session()
    spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                       seed=11,
                       arrivals=Poisson(seed=fault_seed))
    horizon = (BATCH_COUNT * BATCH_SIZE
               * spec.mean_packet_interval())
    faults = FaultTimeline.seeded(fault_seed, ["gpu0", "gpu1"],
                                  horizon, fault_rate=fault_rate)
    config = OverloadConfig(
        queue_limit=queue_limit,
        drop_policy=policy,
        admission=TokenBucketAdmission(rate_fraction=rate_fraction,
                                       burst=4),
        breaker=CircuitBreaker(failure_threshold=2),
        retry=RetryPolicy(budget=retry_budget),
        slo_ms=2.0,
    )
    report = session.run(spec, batch_size=BATCH_SIZE,
                         batch_count=BATCH_COUNT, faults=faults,
                         overload=config)
    assert report.offered_packets \
        == report.delivered_packets + report.dropped_packets
    assert report.conservation_error == 0.0
    assert report.goodput_gbps <= report.throughput_gbps + 1e-12


@settings(max_examples=50, deadline=None)
@given(threshold=st.integers(min_value=1, max_value=5),
       cooldown=st.floats(min_value=0.5, max_value=20.0),
       events=st.lists(
           st.tuples(st.sampled_from(["fail", "ok"]),
                     st.floats(min_value=0.0, max_value=5.0)),
           min_size=1, max_size=40))
def test_breaker_state_machine_invariants(threshold, cooldown, events):
    """Whatever the event sequence, the breaker stays in a legal
    state, never admits while open pre-cooldown, and trips counts
    monotonically."""
    breaker = BreakerTable(CircuitBreaker(failure_threshold=threshold,
                                          cooldown_s=cooldown))
    now = 0.0
    previous_trips = 0
    for kind, gap in events:
        now += gap
        admitted = breaker.allow("dev", now)
        state = breaker.state("dev")
        assert state in (CLOSED, OPEN, HALF_OPEN)
        if state == OPEN:
            assert not admitted
        else:
            assert admitted
        if admitted:
            if kind == "fail":
                breaker.record_failure("dev", now, window=1.0)
            else:
                breaker.record_success("dev")
        assert breaker.trips >= previous_trips
        previous_trips = breaker.trips
        # A closed/half-open device after success is always admitted
        # on the spot; an open one re-probes exactly at cooldown.
        reopen = breaker.open_devices().get("dev")
        if reopen is not None:
            assert not breaker.allow("dev", reopen - 1e-9)
            assert breaker.allow("dev", reopen)
            # The probe moved it to half-open; close it again to keep
            # the walk exploring all three states.
            breaker.record_success("dev")
            assert breaker.state("dev") == CLOSED


@settings(max_examples=15, deadline=None)
@given(budget=st.integers(min_value=0, max_value=4))
def test_retry_budget_bounds_attempts(budget):
    """Against a permanently crashed device, every offload leg pays at
    most ``budget`` retries before falling back to the host."""
    session = _offload_session()
    spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                       seed=11)
    config = OverloadConfig(
        # A huge threshold keeps the breaker out of the way so every
        # dispatch exercises the retry path alone.
        breaker=CircuitBreaker(failure_threshold=10_000),
        retry=RetryPolicy(budget=budget),
    )
    ledger = session.run(spec, batch_size=BATCH_SIZE, batch_count=20,
                         faults=single_crash("gpu0", 0.0),
                         overload=config).ledger
    exhausted = ledger.retry_exhausted.batches
    assert exhausted > 0
    assert ledger.retry_attempts == budget * exhausted
    assert ledger.breaker_open.batches == 0


@settings(max_examples=10, deadline=None)
@given(queue_limit=st.integers(min_value=2, max_value=16),
       policy=_POLICIES)
def test_empty_timeline_overload_equals_no_faults(queue_limit, policy):
    """faults=empty + overload behaves exactly like overload alone:
    the fault normalization commutes with overload protection."""
    session = _cpu_session()
    spec = TrafficSpec(
        size_law=FixedSize(256), offered_gbps=25.0, seed=11,
        arrivals=MMPP(burst_factor=4.0, duty_cycle=0.25, seed=3))
    config = OverloadConfig(queue_limit=queue_limit,
                            drop_policy=policy, slo_ms=2.0)
    plain = session.run(spec, batch_size=BATCH_SIZE,
                        batch_count=BATCH_COUNT, overload=config)
    with_empty = session.run(spec, batch_size=BATCH_SIZE,
                             batch_count=BATCH_COUNT,
                             faults=empty_timeline(), overload=config)
    assert with_empty == plain


_GPU_SPEC = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                        seed=11)


def _seeded_timeline(seed: int) -> FaultTimeline:
    horizon = BATCH_COUNT * BATCH_SIZE * _GPU_SPEC.mean_packet_interval()
    return FaultTimeline.seeded(seed, ["gpu0", "gpu1"], horizon,
                                fault_rate=2.0)


_ADMISSIONS = st.one_of(
    st.none(),
    st.builds(TokenBucketAdmission,
              rate_fraction=st.floats(min_value=0.3, max_value=1.0),
              burst=st.integers(min_value=1, max_value=8)),
    st.builds(SLOFeedbackAdmission,
              p99_ms=st.floats(min_value=0.05, max_value=1.0)),
)
_BREAKERS = st.one_of(
    st.none(),
    st.builds(CircuitBreaker,
              failure_threshold=st.integers(min_value=1, max_value=3),
              cooldown_windows=st.floats(min_value=1.0, max_value=16.0)),
)
_TIMELINES = st.one_of(
    st.just(empty_timeline()),
    st.just(single_crash("gpu0", 0.0)),
    st.integers(min_value=0, max_value=10_000).map(_seeded_timeline),
)


@settings(max_examples=20, deadline=None)
@given(queue_limit=st.one_of(st.none(),
                             st.integers(min_value=1, max_value=8)),
       policy=_POLICIES,
       admission=_ADMISSIONS,
       breaker=_BREAKERS,
       retry_budget=st.one_of(st.none(),
                              st.integers(min_value=0, max_value=2)),
       faults=_TIMELINES)
@example(queue_limit=None, policy=TailDrop(), admission=None,
         breaker=CircuitBreaker(failure_threshold=1,
                                cooldown_windows=4.0),
         retry_budget=0, faults=single_crash("gpu0", 0.0))
def test_runs_are_pure_and_replayable(queue_limit, policy, admission,
                                      breaker, retry_budget, faults):
    """A run is a function of its inputs: its config fingerprints, the
    same call twice returns equal reports (a tripped breaker
    included), and runs 2 and 3 of a chain that threads controller
    state replay on a fresh session from run 1's carried state."""
    config = OverloadConfig(
        queue_limit=queue_limit, drop_policy=policy,
        admission=admission, breaker=breaker,
        retry=None if retry_budget is None
        else RetryPolicy(budget=retry_budget),
        slo_ms=2.0,
    )
    canonical_fingerprint(config)

    def run(session, overload):
        return session.run(_GPU_SPEC, batch_size=BATCH_SIZE,
                           batch_count=BATCH_COUNT, faults=faults,
                           overload=overload)

    session = _offload_session()
    chain = [run(session, config)]
    assert run(session, config) == chain[0]
    for _ in range(2):
        config = config.carry(chain[-1]).observe(chain[-1])
        chain.append(run(session, config))

    carried = chain[0].ledger.state
    replay = dataclasses.replace(config, state=carried).observe(chain[0])
    replay_session = _offload_session()
    for report in chain[1:]:
        replayed = run(replay_session, replay)
        assert canonical_fingerprint(replayed) == \
            canonical_fingerprint(report)
        replay = replay.carry(replayed).observe(replayed)
