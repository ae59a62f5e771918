"""The resource timeline's lanes: input checks, occupancy queries, map
orders and what a run leaves for the garbage collector.

Placement itself is checked against the legacy linear scanner by the
property differential (``tests/properties/test_timeline_properties.py``)
and end to end by the golden parity suite.  This file covers what the
per-resource lanes account for besides their slots:

- ``ResourceTimeline.schedule`` rejects non-finite inputs before any
  lane is touched;
- ``max_queue_depths``, ``waiting_depth`` and ``would_overflow`` agree
  with a brute-force count over the wait spans ``[ready, start)`` of
  seeded random task streams;
- the per-resource maps keep the orders reports expose: ``busy``,
  ``queue_wait`` and ``task_counts`` in first-task order,
  ``max_queue_depths`` in first-wait order.  Report digests sort their
  keys, yet ``total_queue_wait_seconds`` sums in this order, so the
  key lists and its bits are pinned here;
- a lane the kernel resolved but never scheduled on is not listed;
- a run leaves no cyclic garbage: lanes hold no reference to their
  timeline, so every run's timeline is freed by reference counting.
"""

import dataclasses
import gc
import random

import pytest
from builders import kernel_bench_scenario

from repro.core.compass import NFCompass
from repro.faults import FaultSpec, FaultTimeline
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.overload import (
    CircuitBreaker,
    OverloadConfig,
    RetryPolicy,
    TailDrop,
)
from repro.sim.engine import SimulationEngine
from repro.sim.kernel import SATURATING_GBPS, ResourceTimeline
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec

NAN = float("nan")
INF = float("inf")


class TestNonFiniteInputs:
    @pytest.mark.parametrize("ready", [NAN, INF, -INF])
    def test_non_finite_ready_rejected(self, ready):
        timeline = ResourceTimeline()
        timeline.schedule("r", 0.0, 1.0)
        with pytest.raises(ValueError, match="ready"):
            timeline.schedule("r", ready, 1.0)
        # Nothing was committed: the lane still places work.
        assert timeline.intervals("r") == [(0.0, 1.0)]
        assert timeline.schedule("r", 0.0, 1.0) == (1.0, 2.0)
        assert timeline.task_counts["r"] == 2

    @pytest.mark.parametrize("duration", [NAN, INF])
    def test_non_finite_duration_rejected(self, duration):
        timeline = ResourceTimeline()
        with pytest.raises(ValueError, match="duration"):
            timeline.schedule("r", 0.0, duration)
        assert "r" not in timeline.busy
        assert timeline.resources() == []
        assert timeline.schedule("r", 0.0, 1.0) == (0.0, 1.0)
        assert timeline.busy["r"] == 1.0

    @pytest.mark.parametrize("duration", [NAN, -1.0, -INF])
    def test_lane_rejects_nan_and_negative_durations(self, duration):
        lane = ResourceTimeline().lane("r")
        with pytest.raises(ValueError, match="non-negative"):
            lane.schedule(0.0, duration)
        assert lane.tasks == 0 and lane.slots() == []


def random_waits(seed, queue_limit=None, resources=("a", "b", "c"),
                 tasks=120):
    """Schedule a seeded random task stream; returns the timeline and
    each resource's wait spans ``[ready, start)``.

    Ready times are drawn from a coarse grid so that equal ready times
    and waits that end where another begins are common; resource
    ``c`` only ever gets tasks far apart, so it never waits.
    """
    rng = random.Random(seed)
    timeline = ResourceTimeline(queue_limit=queue_limit)
    spans = {resource: [] for resource in resources}
    for index in range(tasks):
        resource = rng.choice(resources[:2])
        ready = rng.randrange(40) * 0.5
        duration = rng.choice((0.0, 0.5, 0.5, 1.0, 1.5))
        if resource == "a" and index % 7 == 0:
            resource = "c"
            ready = 1000.0 + 10.0 * index
        start, _end = timeline.schedule(resource, ready, duration)
        if start > ready:
            spans[resource].append((ready, start))
    return timeline, spans


def brute_depth(spans, t):
    return sum(1 for ready, start in spans if ready <= t < start)


def brute_peak(spans):
    # A count of half-open spans peaks at some span's ready time.
    return max(brute_depth(spans, ready) for ready, _start in spans)


def probe_times(spans):
    points = sorted({t for span in spans for t in span})
    probes = set(points)
    probes.update(t + 0.25 for t in points)
    probes.update((points[0] - 1.0, points[-1] + 1.0))
    return sorted(probes)


class TestOccupancyQueries:
    @pytest.mark.parametrize("queue_limit", [None, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_max_queue_depths_match_brute_force(self, seed, queue_limit):
        timeline, spans = random_waits(seed, queue_limit)
        expected = {resource: brute_peak(waits)
                    for resource, waits in spans.items() if waits}
        assert timeline.max_queue_depths() == expected

    @pytest.mark.parametrize("queue_limit", [None, 1, 2, 4])
    @pytest.mark.parametrize("seed", range(8))
    def test_waiting_depth_and_overflow_match_brute_force(self, seed,
                                                          queue_limit):
        timeline, spans = random_waits(seed, queue_limit)
        for resource in ("a", "b"):
            for t in probe_times(spans[resource]):
                depth = brute_depth(spans[resource], t)
                assert timeline.waiting_depth(resource, t) == depth
                assert timeline.would_overflow(resource, t) == (
                    queue_limit is not None and depth >= queue_limit)

    def test_back_to_back_waits_do_not_overlap(self):
        timeline = ResourceTimeline(queue_limit=1)
        timeline.schedule("r", 0.0, 1.0)                # runs [0, 1)
        assert timeline.schedule("r", 0.0, 1.0) == (1.0, 2.0)  # waits [0, 1)
        assert timeline.schedule("r", 1.0, 1.0) == (2.0, 3.0)  # waits [1, 2)
        assert timeline.max_queue_depths() == {"r": 1}
        assert timeline.waiting_depth("r", 1.0) == 1
        assert timeline.waiting_depth("r", 2.0) == 0
        assert timeline.would_overflow("r", 1.5)
        assert not timeline.would_overflow("r", 2.0)

    def test_equal_ready_times_stack(self):
        timeline = ResourceTimeline(queue_limit=2)
        for _ in range(4):
            timeline.schedule("r", 0.0, 1.0)            # waits 0, 1, 2, 3
        assert timeline.max_queue_depths() == {"r": 3}
        assert [timeline.waiting_depth("r", t)
                for t in (0.0, 0.5, 1.0, 2.0, 3.0)] == [3, 3, 2, 1, 0]
        assert timeline.would_overflow("r", 1.0)
        assert not timeline.would_overflow("r", 2.0)

    def test_resources_that_never_waited_are_absent(self):
        timeline = ResourceTimeline()
        timeline.schedule("idle", 0.0, 1.0)
        timeline.schedule("idle", 5.0, 1.0)
        timeline.schedule("busy", 0.0, 1.0)
        timeline.schedule("busy", 0.0, 1.0)
        assert timeline.max_queue_depths() == {"busy": 1}
        assert timeline.waiting_depth("idle", 0.5) == 0
        assert timeline.waiting_depth("unknown", 0.5) == 0
        assert not timeline.would_overflow("unknown", 0.5)

    def test_queue_limit_below_one_rejected(self):
        for limit in (0, -1):
            with pytest.raises(ValueError, match="queue_limit"):
                ResourceTimeline(queue_limit=limit)


class TestMaps:
    def test_orders_follow_first_task_and_first_wait(self):
        timeline = ResourceTimeline()
        timeline.lane("never")                      # resolved, no task
        timeline.schedule("b", 0.0, 1.0)
        timeline.schedule("a", 0.0, 1.0)
        timeline.schedule("a", 0.0, 1.0)            # a waits first
        timeline.schedule("b", 0.0, 1.0)
        assert list(timeline.busy) == ["b", "a"]
        assert list(timeline.queue_wait) == ["b", "a"]
        assert dict(timeline.task_counts) == {"b": 2, "a": 2}
        assert list(timeline.max_queue_depths()) == ["a", "b"]
        assert timeline.resources() == ["a", "b"]
        assert timeline.intervals("never") == []

    def test_maps_are_read_only(self):
        timeline = ResourceTimeline()
        timeline.schedule("r", 0.0, 1.0)
        for view in (timeline.busy, timeline.queue_wait,
                     timeline.task_counts):
            with pytest.raises(TypeError):
                view["r"] = 0


BATCH_SIZE = 64


def five_nf_run():
    chain = ServiceFunctionChain(
        [make_nf(kind) for kind in ("firewall", "ids", "nat", "ipsec", "dpi")])
    spec = TrafficSpec(size_law=FixedSize(256), offered_gbps=40.0, seed=0)
    result = NFCompass().run(chain, spec, batch_size=BATCH_SIZE,
                             batch_count=200)
    return result.report, result.session.last_timeline


def bench_run(offered_gbps=None, batch_count=300, **options):
    deployment, spec, profile = kernel_bench_scenario()
    if offered_gbps is not None:
        spec = dataclasses.replace(spec, offered_gbps=offered_gbps)
    session = SimulationEngine().session(deployment)
    report = session.run(spec, batch_size=BATCH_SIZE, batch_count=batch_count,
                         branch_profile=profile, **options)
    return report, session.last_timeline


def bounded_bench_run():
    return bench_run(20.0, overload=OverloadConfig(queue_limit=4,
                                                   drop_policy=TailDrop()))


def late_gpu0_bench_run():
    # gpu0 is down for the first 5 ms: the steps resolve its lanes
    # before gpu1's, yet their first tasks come after gpu1's.
    crash = FaultTimeline([FaultSpec("gpu0", "crash", 0.0, 0.005)])
    return bench_run(faults=crash)


CPUS = [f"cpu{index}" for index in range(6)]
GPU_LANES = ["pcie:gpu0:h2d", "gpu0", "pcie:gpu0:d2h",
             "pcie:gpu1:h2d", "gpu1", "pcie:gpu1:d2h"]

#: run -> (first-task order, first-wait order,
#: ``total_queue_wait_seconds.hex()``), recorded before the lanes
#: accounted for their own tasks.
ORDERS = {
    "five-nf": (
        ["cpu5", "cpu4", "cpu2", "cpu1", "pcie:gpu0:h2d", "gpu0",
         "pcie:gpu0:d2h", "cpu3", "pcie:gpu1:h2d", "gpu1", "pcie:gpu1:d2h",
         "cpu0"],
        ["cpu5", "cpu2", "cpu1", "cpu4", "cpu3", "gpu0", "cpu0",
         "pcie:gpu0:h2d"],
        "0x1.c60369478a189p-1"),
    "bench": (
        CPUS + GPU_LANES,
        ["cpu0", "cpu4", "gpu1", "cpu5", "pcie:gpu0:h2d", "gpu0",
         "pcie:gpu0:d2h", "cpu1", "cpu2", "cpu3"],
        "0x1.612146a6dac4ep-6"),
    "bench-bounded": (
        CPUS + GPU_LANES,
        ["cpu1", "cpu5", "cpu0", "cpu2", "cpu4", "pcie:gpu0:h2d",
         "pcie:gpu1:h2d", "gpu1", "gpu0", "cpu3", "pcie:gpu0:d2h"],
        "0x1.520f9f08faaa0p-6"),
    "bench-gpu0-late": (
        CPUS + GPU_LANES[3:] + GPU_LANES[:3],
        ["cpu0", "cpu4", "gpu1", "cpu1", "cpu5", "pcie:gpu1:h2d", "cpu2",
         "pcie:gpu0:h2d", "gpu0", "cpu3", "pcie:gpu0:d2h"],
        "0x1.104dcdc94d9b8p-3"),
}
RUNS = {"five-nf": five_nf_run, "bench": bench_run,
        "bench-bounded": bounded_bench_run,
        "bench-gpu0-late": late_gpu0_bench_run}


class TestReportOrders:
    @pytest.mark.parametrize("name", sorted(ORDERS))
    def test_key_orders_and_total_wait_bits(self, name):
        report, timeline = RUNS[name]()
        first_task, first_wait, total_wait = ORDERS[name]
        assert list(report.processor_busy_seconds) == first_task
        assert list(report.processor_queue_wait_seconds) == first_task
        assert list(timeline.task_counts) == first_task
        assert list(report.max_queue_depth) == first_wait
        assert report.total_queue_wait_seconds.hex() == total_wait
        assert timeline.resources() == sorted(first_task)
        assert all(count > 0 for count in timeline.task_counts.values())

    def test_lanes_without_tasks_are_not_listed(self):
        # gpu0 is down for the whole run: its steps resolve gpu0's
        # lanes, yet every dispatch re-queues to the host core.
        crash = FaultTimeline([FaultSpec("gpu0", "crash", 0.0, 1.0)])
        report, timeline = bench_run(faults=crash)
        assert report.ledger.fault_crash.batches > 0
        unused = {"pcie:gpu0:h2d", "gpu0", "pcie:gpu0:d2h"}
        listed = (set(timeline.resources()) | set(timeline.task_counts)
                  | set(timeline.busy) | set(report.processor_busy_seconds))
        assert not listed & unused
        assert timeline.resources() == sorted(CPUS + GPU_LANES[3:])
        assert all(count > 0 for count in timeline.task_counts.values())


def protected_run():
    faults = FaultTimeline([
        FaultSpec("gpu0", "crash", 0.002, 0.004),
        FaultSpec("gpu1", "degrade_link", 0.001, 0.003, factor=3.0),
    ])
    overload = OverloadConfig(queue_limit=4, drop_policy=TailDrop(),
                              breaker=CircuitBreaker(),
                              retry=RetryPolicy(timeout_stretch=2.0))
    report, _timeline = bench_run(20.0, faults=faults, overload=overload)
    ledger = report.ledger
    assert ledger.queue_dropped_batches > 0 and ledger.retry_attempts > 0
    return report


class TestNoCyclicGarbage:
    """A run's objects are freed by reference counting alone.

    A lane pointing back at its timeline leaves every run's timeline
    (tens of thousands of slots at saturation) to the cyclic
    collector: with such a reference the ``kernel-saturated``
    benchmark's ``peak_rss_mb`` rose from about 35 to 79 MB.
    """

    @pytest.mark.parametrize("run", [
        lambda: bench_run(SATURATING_GBPS),
        protected_run,
        five_nf_run,
    ], ids=["saturated", "protected", "five-nf"])
    def test_run_leaves_no_cyclic_garbage(self, run):
        gc.collect()
        gc.disable()
        try:
            result = run()
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()
