"""End-to-end overload semantics in the event kernel.

The acceptance bar: a no-op config is byte-identical to the
unprotected kernel (the golden-parity suite pins the event stream;
here we pin the ledger), bounded queues under sustained 2x
overload shed measurable load while conserving every packet exactly,
and the circuit breaker contains crashed devices without breaking the
fault suite's conservation guarantees.
"""

import dataclasses
from collections import Counter

import pytest

from repro.faults import single_crash
from repro.hw import DEFAULT_HOST_DEVICE
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.obs import Trace, use_trace
from repro.overload import (
    CircuitBreaker,
    ControllerState,
    DeadlineDrop,
    HeadDrop,
    OverloadConfig,
    RetryPolicy,
    SLOFeedbackAdmission,
    TailDrop,
    TokenBucketAdmission,
)
from repro.overload.breaker import OPEN
from repro.sim.mapping import Deployment, Mapping
from repro.sim.metrics import RunLedger
from repro.sim.tracing import EventRecorder
from repro.traffic.arrivals import MMPP
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


@pytest.fixture
def cpu_session(engine):
    """A two-core CPU chain: the ingress core is the bottleneck, so
    bounded ingress queues bite under overload."""
    graph = ServiceFunctionChain(
        [make_nf("firewall"), make_nf("ids")]
    ).concatenated_graph()
    mapping = Mapping.all_cpu(graph, cores=["cpu0", "cpu1"])
    return engine.session(Deployment(graph, mapping,
                                     name="overload-cpu"))


@pytest.fixture
def offload_session(engine):
    """A partially offloaded chain for breaker/retry scenarios."""
    graph = ServiceFunctionChain(
        [make_nf("ipsec"), make_nf("dpi")]
    ).concatenated_graph()
    mapping = Mapping.fixed_ratio(
        graph, 0.6, cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"],
        gpus=["gpu0", "gpu1"],
    )
    return engine.session(Deployment(graph, mapping,
                                     persistent_kernel=True,
                                     name="overload-offload"))


def overloaded_spec(session, multiple=2.0, bursty=True, batches=100):
    """A spec offering ``multiple`` x the session's capacity."""
    probe = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                        seed=11)
    capacity = session.measure_capacity(probe, batch_size=32,
                                        batch_count=40)
    spec = TrafficSpec(size_law=FixedSize(256),
                       offered_gbps=capacity * multiple, seed=11)
    if bursty:
        spec = dataclasses.replace(
            spec, arrivals=MMPP(burst_factor=4.0, duty_cycle=0.25,
                                seed=17))
    return spec


def conservation_error(report):
    return abs(report.offered_packets - report.delivered_packets
               - report.dropped_packets)


def requeue_causes(recorder):
    return Counter(event.cause for event in recorder.requeue_events)


def breaker_states(report):
    """Device -> breaker state the run left, for devices it kept."""
    return {entry.device_id: entry.state
            for entry in report.ledger.state.breakers}


class TestNoopPath:
    def test_noop_config_leaves_stats_unset(self, cpu_session):
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=10.0,
                           seed=11)
        baseline = cpu_session.run(spec, batch_size=32, batch_count=30)
        assert baseline.ledger == RunLedger(
            peak_rate_gbps=baseline.ledger.peak_rate_gbps)
        noop = cpu_session.run(spec, batch_size=32, batch_count=30,
                               overload=OverloadConfig())
        assert noop == baseline

    def test_unbounded_protected_run_matches_baseline(self,
                                                      cpu_session):
        """A huge queue limit under moderate load changes nothing:
        same deliveries, same latencies, zero drops."""
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=5.0,
                           seed=11)
        baseline = cpu_session.run(spec, batch_size=32, batch_count=30)
        guarded = cpu_session.run(
            spec, batch_size=32, batch_count=30,
            overload=OverloadConfig(queue_limit=10_000),
        )
        assert guarded.latency_samples == baseline.latency_samples
        assert guarded.delivered_packets == baseline.delivered_packets
        assert guarded.dropped_packets == baseline.dropped_packets
        assert guarded.ledger.queue_dropped_batches == 0
        assert guarded.ledger.shed_batches == 0

    def test_offered_packets_populated_even_without_overload(
            self, cpu_session):
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=5.0,
                           seed=11)
        report = cpu_session.run(spec, batch_size=32, batch_count=30)
        assert report.offered_packets == 32.0 * 30
        assert conservation_error(report) == 0.0


class TestBoundedQueues:
    def test_overload_drops_and_conserves_exactly(self, cpu_session):
        spec = overloaded_spec(cpu_session)
        config = OverloadConfig(queue_limit=4, slo_ms=2.0)
        report = cpu_session.run(spec, batch_size=32, batch_count=100,
                                 overload=config)
        assert report.drop_rate > 0.0
        assert conservation_error(report) == 0.0
        assert report.ledger.queue_dropped_batches > 0
        assert report.queue_dropped_packets > 0
        assert report.drops  # per-resource attribution present

    def test_bounded_queue_caps_latency_versus_unprotected(
            self, cpu_session):
        spec = overloaded_spec(cpu_session)
        raw = cpu_session.run(spec, batch_size=32, batch_count=100)
        guarded = cpu_session.run(
            spec, batch_size=32, batch_count=100,
            overload=OverloadConfig(queue_limit=4, slo_ms=2.0),
        )
        assert guarded.latency.p99 < raw.latency.p99
        assert guarded.latency.p99 <= 2.0e-3

    def test_head_drop_delivers_fresher_samples_than_tail(
            self, cpu_session):
        spec = overloaded_spec(cpu_session)
        reports = {}
        for policy in (TailDrop(), HeadDrop()):
            reports[policy.name] = cpu_session.run(
                spec, batch_size=32, batch_count=100,
                overload=OverloadConfig(queue_limit=4,
                                        drop_policy=policy,
                                        slo_ms=2.0),
            )
        tail, head = reports["tail"], reports["head"]
        # Slot inheritance: same delivered volume, fresher samples.
        assert head.delivered_packets == pytest.approx(
            tail.delivered_packets)
        assert head.latency.mean < tail.latency.mean
        assert conservation_error(head) == 0.0
        assert head.ledger.head_cancelled_batches > 0

    def test_deadline_drop_sheds_less_when_slo_is_loose(
            self, cpu_session):
        spec = overloaded_spec(cpu_session)
        tail = cpu_session.run(
            spec, batch_size=32, batch_count=100,
            overload=OverloadConfig(queue_limit=4, slo_ms=50.0),
        )
        deadline = cpu_session.run(
            spec, batch_size=32, batch_count=100,
            overload=OverloadConfig(queue_limit=4,
                                    drop_policy=DeadlineDrop(),
                                    slo_ms=50.0),
        )
        # A 50 ms deadline admits backlog tail-drop would refuse.
        assert deadline.drop_rate <= tail.drop_rate
        assert conservation_error(deadline) == 0.0

    def test_goodput_splits_late_deliveries(self, cpu_session):
        spec = overloaded_spec(cpu_session)
        config = OverloadConfig(queue_limit=64, slo_ms=0.05)
        report = cpu_session.run(spec, batch_size=32, batch_count=100,
                                 overload=config)
        # With a 50 us SLO most deliveries are late: goodput collapses
        # below raw throughput even though packets were delivered.
        assert report.goodput_gbps < report.throughput_gbps
        assert report.slo_ms == 0.05


class TestAdmission:
    def test_token_bucket_sheds_half_at_half_rate(self, cpu_session):
        spec = overloaded_spec(cpu_session, multiple=1.0, bursty=False)
        # burst=4 absorbs the float jitter of near-equal arrival gaps
        # (a burst=1 bucket loses a token to every 0.999... refill).
        config = OverloadConfig(
            admission=TokenBucketAdmission(rate_fraction=0.5, burst=4),
        )
        report = cpu_session.run(spec, batch_size=32, batch_count=100,
                                 overload=config)
        assert report.shed_fraction == pytest.approx(0.5, abs=0.05)
        assert conservation_error(report) == 0.0
        assert report.ledger.shed_batches == pytest.approx(50, abs=5)

    def test_slo_feedback_closes_the_loop_across_runs(self,
                                                      cpu_session):
        spec = overloaded_spec(cpu_session)
        admission = SLOFeedbackAdmission(p99_ms=0.2, backoff=0.5,
                                         healthy_epochs=1)
        config = OverloadConfig(queue_limit=64, slo_ms=2.0,
                                admission=admission)
        first = cpu_session.run(spec, batch_size=32, batch_count=100,
                                overload=config)
        assert first.shed_fraction == 0.0  # fraction still 1.0
        # p99 above 0.2 ms -> back off
        config = config.carry(first).observe(first)
        assert config.state.admitted_fraction == pytest.approx(0.5)
        second = cpu_session.run(spec, batch_size=32, batch_count=100,
                                 overload=config)
        assert second.shed_fraction == pytest.approx(0.5, abs=0.05)
        assert second.latency.p99 <= first.latency.p99


class TestBreakerDispatch:
    def test_crashed_device_trips_breaker_and_conserves(
            self, offload_session):
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                           seed=11)
        config = OverloadConfig(
            breaker=CircuitBreaker(failure_threshold=3),
            retry=RetryPolicy(budget=1),
        )
        report = offload_session.run(
            spec, batch_size=32, batch_count=30,
            faults=single_crash("gpu0", 0.0), overload=config,
        )
        ledger = report.ledger
        assert ledger.breaker_trips >= 1
        assert ledger.retry_attempts > 0
        assert ledger.retry_exhausted.batches > 0
        # Once open, later batches skip the device without a timeout.
        assert ledger.breaker_open.batches > 0
        assert breaker_states(report)["gpu0"] == OPEN
        assert conservation_error(report) == 0.0
        # Nothing ran on the fenced device.
        assert report.processor_busy_seconds.get("gpu0", 0.0) == 0.0

    def test_breaker_open_is_cheaper_than_paying_timeouts(
            self, offload_session):
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                           seed=11)
        crashed = single_crash("gpu0", 0.0)
        raw = offload_session.run(spec, batch_size=32, batch_count=30,
                                  faults=crashed)
        config = OverloadConfig(
            breaker=CircuitBreaker(failure_threshold=1),
            retry=RetryPolicy(budget=0),
        )
        contained = offload_session.run(
            spec, batch_size=32, batch_count=30, faults=crashed,
            overload=config,
        )
        assert contained.makespan_seconds <= raw.makespan_seconds
        assert contained.delivered_packets == pytest.approx(
            raw.delivered_packets)

    def test_requeue_causes_are_attributed(self, offload_session):
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                           seed=11)
        crashed = single_crash("gpu0", 0.0)
        # Legacy path: no overload config -> every requeue is a crash.
        legacy_recorder = EventRecorder()
        legacy = offload_session.run(spec, batch_size=32,
                                     batch_count=30, faults=crashed,
                                     recorder=legacy_recorder)
        legacy_causes = requeue_causes(legacy_recorder)
        assert set(legacy_causes) == {"fault_crash"}
        assert legacy.ledger.fault_crash.batches \
            == legacy_causes["fault_crash"]
        # Breaker path: retries exhaust, then the breaker fences the
        # device; neither cause pollutes the crash-fault ledger.
        recorder = EventRecorder()
        config = OverloadConfig(
            breaker=CircuitBreaker(failure_threshold=2),
            retry=RetryPolicy(budget=1),
        )
        guarded = offload_session.run(spec, batch_size=32,
                                      batch_count=30, faults=crashed,
                                      overload=config, recorder=recorder)
        causes = requeue_causes(recorder)
        assert causes.get("retry_exhausted", 0) > 0
        assert causes.get("breaker_open", 0) > 0
        assert causes.get("fault_crash", 0) == 0
        ledger = guarded.ledger
        assert ledger.fault_crash.batches == 0
        assert ledger.retry_exhausted.batches == causes["retry_exhausted"]
        assert ledger.breaker_open.batches == causes["breaker_open"]

    def test_breaker_persists_across_runs(self, offload_session):
        """Carried breaker state keeps a device fenced into the next
        run even when that run carries no fault timeline; the config
        itself never changes."""
        spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0,
                           seed=11)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1e9)
        config = OverloadConfig(breaker=breaker,
                                retry=RetryPolicy(budget=0))
        tripped = offload_session.run(spec, batch_size=32,
                                      batch_count=30,
                                      faults=single_crash("gpu0", 0.0),
                                      overload=config)
        assert breaker_states(tripped)["gpu0"] == OPEN
        assert config.state == ControllerState()
        healthy = offload_session.run(spec, batch_size=32,
                                      batch_count=30,
                                      overload=config.carry(tripped))
        assert healthy.ledger.breaker_open.batches > 0
        assert healthy.processor_busy_seconds.get("gpu0", 0.0) == 0.0
        fresh = offload_session.run(spec, batch_size=32, batch_count=30,
                                    overload=config)
        assert fresh.ledger.breaker_open.batches == 0
        assert fresh.processor_busy_seconds["gpu0"] > 0.0


class TestObservability:
    def test_overload_counters_reach_the_trace(self, cpu_session):
        spec = overloaded_spec(cpu_session)
        trace = Trace(name="overload-counters")
        # burst=16 lets MMPP bursts through the bucket (so the bounded
        # queue overflows too) while the sustained rate still sheds.
        config = OverloadConfig(
            queue_limit=4, slo_ms=2.0,
            admission=TokenBucketAdmission(rate_fraction=0.8,
                                           burst=16),
        )
        with use_trace(trace):
            cpu_session.run(spec, batch_size=32, batch_count=100,
                            overload=config, trace=trace)
        counters = trace.metrics.snapshot()["counters"]
        assert counters["overload.drops"] > 0
        assert counters["overload.sheds"] > 0
