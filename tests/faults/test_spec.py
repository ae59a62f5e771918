"""Unit tests for FaultSpec / FaultTimeline."""

import math
import random

import pytest

from repro.faults import (
    DEFAULT_REQUEUE_PENALTY,
    FAULT_KINDS,
    FaultSpec,
    FaultTimeline,
    empty_timeline,
    single_crash,
)
from repro.hw.platform import PlatformSpec


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("gpu0", "meltdown", 0.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            FaultSpec("gpu0", "crash", 1.0, 1.0)

    def test_infinite_start_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FaultSpec("gpu0", "crash", math.inf)

    def test_shrink_factor_rejected(self):
        with pytest.raises(ValueError, match="stretch"):
            FaultSpec("gpu0", "slowdown", 0.0, 1.0, factor=0.5)

    def test_active_half_open(self):
        fault = FaultSpec("gpu0", "crash", 1.0, 2.0)
        assert not fault.active(0.999)
        assert fault.active(1.0)
        assert fault.active(1.999)
        assert not fault.active(2.0)

    def test_overlaps_half_open(self):
        fault = FaultSpec("gpu0", "crash", 1.0, 2.0)
        assert fault.overlaps(0.0, 1.5)
        assert fault.overlaps(1.5, 3.0)
        assert not fault.overlaps(0.0, 1.0)
        assert not fault.overlaps(2.0, 3.0)

    def test_zero_width_overlap_degenerates_to_active(self):
        fault = FaultSpec("gpu0", "crash", 1.0, 2.0)
        assert fault.overlaps(1.5, 1.5)
        assert not fault.overlaps(2.0, 2.0)

    def test_no_recovery_default(self):
        fault = FaultSpec("gpu0", "crash", 3.0)
        assert fault.active(1e12)


class TestFaultTimelineQueries:
    def test_crashed_at_instant(self):
        timeline = single_crash("gpu0", 1.0, 2.0)
        assert timeline.crashed("gpu0", 1.5)
        assert not timeline.crashed("gpu0", 0.5)
        assert not timeline.crashed("gpu1", 1.5)

    def test_crashed_during_window(self):
        timeline = single_crash("gpu0", 1.0, 2.0)
        assert timeline.crashed_during("gpu0", 0.0, 1.5)
        assert not timeline.crashed_during("gpu0", 2.0, 3.0)

    def test_overlapping_stretches_multiply(self):
        timeline = FaultTimeline([
            FaultSpec("gpu0", "degrade_link", 0.0, 10.0, factor=2.0),
            FaultSpec("gpu0", "degrade_link", 5.0, 10.0, factor=3.0),
            FaultSpec("gpu0", "slowdown", 0.0, 10.0, factor=1.5),
        ])
        assert timeline.link_stretch("gpu0", 1.0) == pytest.approx(2.0)
        assert timeline.link_stretch("gpu0", 6.0) == pytest.approx(6.0)
        assert timeline.slowdown("gpu0", 6.0) == pytest.approx(1.5)
        assert timeline.link_stretch("gpu1", 6.0) == 1.0

    def test_empty_timeline(self):
        timeline = empty_timeline()
        assert timeline.is_empty
        assert len(timeline) == 0
        assert timeline.device_ids() == []

    def test_invalid_requeue_penalty(self):
        with pytest.raises(ValueError):
            FaultTimeline((), requeue_penalty=0.5)
        assert empty_timeline().requeue_penalty == \
            DEFAULT_REQUEUE_PENALTY


def random_timeline(rng):
    """Faults of every kind on three devices, from a coarse grid of
    starts so that windows of one kind share edges and overlap; some
    never end."""
    specs = []
    for device_id in ("gpu0", "gpu1", "nic0"):
        for _ in range(rng.randint(0, 7)):
            start = rng.choice([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
            end = (math.inf if rng.random() < 0.2
                   else start + rng.choice([0.25, 0.5, 1.0, 2.5]))
            specs.append(FaultSpec(device_id, rng.choice(FAULT_KINDS),
                                   start, end,
                                   factor=rng.uniform(1.0, 4.0)))
    return FaultTimeline(specs)


def query_times(timeline):
    """Every finite window edge, one ulp either side of it, and a
    few instants between and past them."""
    edges = {0.0, 0.1, 0.7, 10.0}
    for fault in timeline.specs:
        edges.update(edge for edge in (fault.start, fault.end)
                     if math.isfinite(edge))
    times = set()
    for edge in edges:
        times.update((math.nextafter(edge, -math.inf), edge,
                      math.nextafter(edge, math.inf)))
    return sorted(times)


class TestQueriesMatchSpecScan:
    """The per-kind window scans answer as a fold of
    :meth:`FaultSpec.active` and :meth:`FaultSpec.overlaps` over the
    device's specs in spec order, to the last bit of every product."""

    @staticmethod
    def scan(timeline, device_id, kind, covers):
        hits = [fault for fault in timeline.affecting(device_id)
                if fault.kind == kind and covers(fault)]
        stretch = 1.0
        for fault in hits:
            stretch *= fault.factor
        return bool(hits), stretch

    def test_random_timelines(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            timeline = random_timeline(rng)
            for timeline in (timeline, timeline.shifted(-0.5),
                             timeline.shifted(0.25)):
                times = query_times(timeline)
                for device_id in ("gpu0", "gpu1", "nic0", "cpu0"):
                    for t in times:
                        crashed, _ = self.scan(
                            timeline, device_id, "crash",
                            lambda f: f.active(t))
                        assert timeline.crashed(device_id, t) == crashed
                        for kind, query in (
                                ("degrade_link", timeline.link_stretch),
                                ("slowdown", timeline.slowdown)):
                            _, stretch = self.scan(
                                timeline, device_id, kind,
                                lambda f: f.active(t))
                            assert query(device_id, t) == stretch
                    for t0 in times[::3]:
                        for t1 in times:
                            during, _ = self.scan(
                                timeline, device_id, "crash",
                                lambda f: f.overlaps(t0, t1))
                            assert timeline.crashed_during(
                                device_id, t0, t1) == during
                            checked += 1
        assert checked > 10_000


class TestDerivation:
    def test_shifted_rebases_and_drops_expired(self):
        timeline = FaultTimeline([
            FaultSpec("gpu0", "crash", 1.0, 2.0),
            FaultSpec("gpu1", "crash", 5.0, 8.0),
        ])
        shifted = timeline.shifted(-3.0)
        # gpu0's window ended before the new zero; gpu1's moved.
        assert shifted.device_ids() == ["gpu1"]
        assert shifted.crashed("gpu1", 2.5)
        assert not shifted.crashed("gpu1", 5.5)

    def test_shifted_clamps_straddling_window(self):
        shifted = single_crash("gpu0", 1.0, 5.0).shifted(-3.0)
        (fault,) = shifted.specs
        assert fault.start == 0.0
        assert fault.end == pytest.approx(2.0)

    def test_shift_by_zero_returns_self(self):
        timeline = single_crash("gpu0", 1.0)
        assert timeline.shifted(0.0) is timeline

    def test_restricted_to(self):
        timeline = FaultTimeline([
            FaultSpec("gpu0", "crash", 0.0),
            FaultSpec("gpu1", "crash", 0.0),
        ])
        assert timeline.restricted_to(["gpu1"]).device_ids() == ["gpu1"]

    def test_validate_against_unknown_device(self):
        platform = PlatformSpec()
        timeline = single_crash("tpu7", 0.0)
        with pytest.raises(KeyError) as excinfo:
            timeline.validate_against(platform)
        message = str(excinfo.value)
        assert "tpu7" in message
        assert "gpu0" in message  # names the inventory

    def test_validate_against_known_devices_passes(self):
        platform = PlatformSpec().with_smartnic()
        FaultTimeline([
            FaultSpec("gpu0", "crash", 0.0),
            FaultSpec("nic0", "slowdown", 0.0, 1.0, factor=2.0),
        ]).validate_against(platform)


class TestSeededAndIdentity:
    def test_seeded_is_deterministic(self):
        a = FaultTimeline.seeded(7, ["gpu0", "gpu1"], 10.0)
        b = FaultTimeline.seeded(7, ["gpu0", "gpu1"], 10.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a.__fingerprint__() == b.__fingerprint__()

    def test_seeds_differ(self):
        a = FaultTimeline.seeded(0, ["gpu0", "gpu1"], 10.0)
        b = FaultTimeline.seeded(1, ["gpu0", "gpu1"], 10.0)
        assert a != b

    def test_seeded_windows_inside_horizon(self):
        timeline = FaultTimeline.seeded(3, ["gpu0", "gpu1"], 10.0,
                                        fault_rate=3.0)
        assert len(timeline) > 0
        for fault in timeline.specs:
            assert 0.0 <= fault.start < 10.0
            assert fault.end <= 10.0

    def test_seeded_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            FaultTimeline.seeded(0, ["gpu0"], 0.0)

    def test_fingerprint_encodes_infinite_end(self):
        print_ = single_crash("gpu0", 1.0).__fingerprint__()
        assert print_["specs"][0][3] == "inf"
