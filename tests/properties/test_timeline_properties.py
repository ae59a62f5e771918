"""Property-based tests for the event kernel's ResourceTimeline.

Hypothesis drives random task streams (including adversarial mixes of
zero durations, identical ready times, and out-of-order arrivals)
against :class:`~repro.sim.kernel.ResourceTimeline` and checks the
promises the scheduler makes:

- a resource is never double-booked: committed blocks are sorted and
  pairwise disjoint;
- no task starts before its ready time, and every task gets exactly
  the duration it asked for;
- busy bookkeeping matches the committed interval widths;
- placements are bit-identical to the legacy linear scanner kept in
  ``repro.sim.legacy`` (the parity bedrock of the kernel rewrite).
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import ResourceTimeline
from repro.sim.legacy import _LinearResources
from repro.validate.invariants import verify_timeline

pytestmark = pytest.mark.property

#: (ready, duration) streams; durations include exact zeros and tiny
#: positive values so the no-commit path and coalescing boundaries are
#: exercised.
TASKS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0,
                  allow_nan=False, allow_infinity=False),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
        ),
    ),
    min_size=1, max_size=60,
)


@st.composite
def long_task_streams(draw):
    """200–3000 tasks, enough to span many of a lane's index blocks.

    Ready times cluster on a lattice of the stream's own durations
    around a few centres, so most tasks land behind the tail and fill
    gaps exactly one duration wide; durations are those values, their
    ``math.nextafter`` neighbours (gaps that miss or fit by one ulp)
    and zeros.  A ready time of ``None`` means "the end of the
    previous placement": zero durations there land in the seam
    between two back-to-back slots.
    """
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(200, 3000))
    units = [rng.uniform(0.01, 5.0) for _ in range(draw(st.integers(1, 3)))]
    centres = [rng.uniform(0.0, 1000.0)
               for _ in range(draw(st.integers(1, 6)))]
    tasks = []
    for _ in range(count):
        unit = rng.choice(units)
        kind = rng.random()
        if kind < 0.1:
            tasks.append((None, 0.0))
            continue
        ready = rng.choice(centres) + rng.randrange(count // 4) * unit
        if kind < 0.2:
            duration = 0.0
        elif kind < 0.35:
            duration = math.nextafter(unit, math.inf)
        elif kind < 0.5:
            duration = math.nextafter(unit, 0.0)
        else:
            duration = unit
        tasks.append((ready, duration))
    return tasks


def ulp_hole_stream():
    """A hole whose computed width is one rounding short of the task
    that fits it: ``fl(200 + 0.1) - 200 < 0.1``, yet the legacy
    predicate ``fl(200 + 0.1) >= fl(200 + 0.1)`` places the task
    there.  The hole sits three index blocks past the ready time."""
    return ([(float(k), 1.0) for k in range(200)]
            + [(200.0 + 0.1, 1.0)] + [(None, 1.0)] * 99
            + [(0.0, 0.1)])


def block_seam_stream():
    """A 2-wide hole in front of the first slot of an index block.

    A 10-wide gap later in the same block loosens its bound and is then
    filled exactly; a 3-long task crosses the block without a fit and
    tightens the bound, which must still count the hole in front of
    the block's first slot, so a 1.5-long task then lands in it."""
    return ([(float(k), 1.0) for k in range(128)]
            + [(130.0, 1.0)] + [(None, 1.0)] * 21
            + [(162.0, 1.0)] + [(None, 1.0)] * 149
            + [(152.0, 10.0), (0.0, 3.0), (0.0, 1.5)])


RESOURCES = st.lists(st.sampled_from(["cpu0", "cpu1", "gpu0"]),
                     min_size=1, max_size=60)


@given(tasks=TASKS)
@settings(max_examples=200)
def test_never_double_books(tasks):
    timeline = ResourceTimeline()
    for ready, duration in tasks:
        timeline.schedule("r", ready, duration)
    blocks = timeline.intervals("r")
    assert blocks == sorted(blocks)
    for (_s1, e1), (s2, _e2) in zip(blocks, blocks[1:]):
        assert e1 <= s2  # non-overlapping interiors (may abut)


@given(tasks=TASKS)
@settings(max_examples=200)
def test_starts_respect_ready_and_duration(tasks):
    timeline = ResourceTimeline()
    for ready, duration in tasks:
        start, end = timeline.schedule("r", ready, duration)
        assert start >= ready
        assert end == start + duration


@given(tasks=TASKS, resources=RESOURCES)
@settings(max_examples=150)
def test_busy_bookkeeping_matches_intervals(tasks, resources):
    timeline = ResourceTimeline()
    expected_busy = {}
    for (ready, duration), resource in zip(tasks, resources):
        timeline.schedule(resource, ready, duration)
        expected_busy[resource] = \
            expected_busy.get(resource, 0.0) + duration
    for resource, busy in expected_busy.items():
        assert timeline.busy[resource] == pytest.approx(busy)
        assert timeline.busy_span(resource) == pytest.approx(
            busy, abs=1e-6)
    assert verify_timeline(timeline) == []


@given(tasks=st.one_of(TASKS, long_task_streams()))
@example(tasks=ulp_hole_stream())
@example(tasks=block_seam_stream())
@settings(max_examples=200, deadline=None)
def test_placement_parity_with_legacy_scanner(tasks):
    """Every (start, end) must equal the legacy linear scan's answer,
    on short adversarial streams and on long ones that span many index
    blocks."""
    timeline = ResourceTimeline()
    legacy = _LinearResources()
    end = 0.0
    for ready, duration in tasks:
        if ready is None:
            ready = end
        new_slot = timeline.schedule("r", ready, duration)
        old_slot = legacy.schedule("r", ready, duration)
        assert new_slot == old_slot
        end = new_slot[1]
    assert timeline.busy["r"] == legacy.busy["r"]
    assert timeline.intervals("r") == legacy.intervals["r"]


@given(tasks=TASKS)
@settings(max_examples=100)
def test_queue_wait_totals_are_consistent(tasks):
    timeline = ResourceTimeline()
    expected_wait = 0.0
    for ready, duration in tasks:
        start, _end = timeline.schedule("r", ready, duration)
        expected_wait += start - ready
    assert timeline.queue_wait["r"] == pytest.approx(expected_wait)
    assert timeline.queue_wait["r"] >= 0.0
    assert timeline.task_counts["r"] == len(tasks)
