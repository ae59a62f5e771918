"""Unit and invariant tests for the discrete-event engine."""

import pytest

from repro.hw import DEFAULT_HOST_DEVICE
from repro.elements.graph import ElementGraph
from repro.elements.standard import Counter, FromDevice, HashSwitch, \
    ToDevice
from repro.nf.base import ServiceFunctionChain
from repro.nf.catalog import make_nf
from repro.sim.engine import BranchProfile
from repro.sim.kernel import ResourceTimeline
from repro.sim.mapping import Deployment, Mapping
from repro.traffic.distributions import FixedSize
from repro.traffic.generator import TrafficSpec


@pytest.fixture
def spec():
    return TrafficSpec(size_law=FixedSize(128), offered_gbps=40.0, seed=5)


def simple_deployment(nf_type="ipv4", ratio=0.0, persistent=False):
    graph = ServiceFunctionChain([make_nf(nf_type)]).concatenated_graph()
    if ratio > 0:
        mapping = Mapping.fixed_ratio(graph, ratio,
                                      cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"],
                                      gpus=["gpu0"])
    else:
        mapping = Mapping.all_cpu(graph, cores=[DEFAULT_HOST_DEVICE, "cpu1", "cpu2"])
    return Deployment(graph, mapping, persistent_kernel=persistent,
                      name=f"{nf_type}-{ratio}")


class TestResources:
    def test_sequential_scheduling(self):
        timeline = ResourceTimeline()
        s1, e1 = timeline.schedule("cpu0", 0.0, 1.0)
        s2, e2 = timeline.schedule("cpu0", 0.0, 1.0)
        assert (s1, e1) == (0.0, 1.0)
        assert (s2, e2) == (1.0, 2.0)

    def test_gap_filling(self):
        timeline = ResourceTimeline()
        timeline.schedule("cpu0", 0.0, 1.0)         # [0, 1]
        timeline.schedule("cpu0", 5.0, 1.0)         # [5, 6]
        start, end = timeline.schedule("cpu0", 0.0, 2.0)
        assert (start, end) == (1.0, 3.0)           # fills the gap

    def test_gap_too_small_skipped(self):
        timeline = ResourceTimeline()
        timeline.schedule("cpu0", 0.0, 1.0)         # [0, 1]
        timeline.schedule("cpu0", 2.0, 1.0)         # [2, 3]
        start, _end = timeline.schedule("cpu0", 0.0, 1.5)
        assert start == 3.0                         # 1-wide gap skipped

    def test_busy_accounting(self):
        timeline = ResourceTimeline()
        timeline.schedule("cpu0", 0.0, 1.0)
        timeline.schedule("cpu0", 0.0, 2.0)
        assert timeline.busy["cpu0"] == 3.0
        assert timeline.busy_span("cpu0") == 3.0

    def test_queue_wait_accounting(self):
        timeline = ResourceTimeline()
        timeline.schedule("cpu0", 0.0, 1.0)         # starts on time
        timeline.schedule("cpu0", 0.0, 2.0)         # waits 1.0
        assert timeline.queue_wait["cpu0"] == pytest.approx(1.0)
        assert timeline.task_counts["cpu0"] == 2

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            ResourceTimeline().schedule("cpu0", 0.0, -1.0)

    def test_intervals_stay_sorted(self):
        timeline = ResourceTimeline()
        for ready, duration in [(5.0, 1.0), (0.0, 1.0), (2.0, 0.5),
                                (0.0, 0.6), (9.0, 0.1)]:
            timeline.schedule("r", ready, duration)
        slots = timeline.intervals("r")
        assert slots == sorted(slots)
        for (s1, e1), (s2, e2) in zip(slots, slots[1:]):
            assert e1 <= s2  # non-overlapping (abutting allowed)

    def test_abutting_slots_kept_distinct(self):
        timeline = ResourceTimeline()
        timeline.schedule("r", 0.0, 1.0)
        timeline.schedule("r", 2.0, 1.0)
        timeline.schedule("r", 0.0, 1.0)            # fills [1, 2] exactly
        # Slots stay as committed — the seams matter to zero-duration
        # placements, so abutting slots are not merged.
        assert timeline.intervals("r") == [(0.0, 1.0), (1.0, 2.0),
                                           (2.0, 3.0)]
        assert timeline.busy["r"] == pytest.approx(3.0)

    def test_zero_duration_fits_in_seam(self):
        timeline = ResourceTimeline()
        timeline.schedule("r", 0.0, 1.0)
        timeline.schedule("r", 0.0, 1.0)            # abuts: [1, 2]
        start, end = timeline.schedule("r", 1.0, 0.0)
        assert start == end == 1.0                  # seam is reachable

    def test_zero_duration_commits_nothing(self):
        timeline = ResourceTimeline()
        timeline.schedule("r", 0.0, 1.0)
        start, end = timeline.schedule("r", 0.5, 0.0)
        assert start == end == 1.0                  # pushed past the block
        assert timeline.intervals("r") == [(0.0, 1.0)]


class TestEngineInvariants:
    def test_packet_conservation_no_drops(self, engine, spec):
        deployment = simple_deployment("probe")
        report = engine.run(deployment, spec, batch_size=32,
                            batch_count=20)
        assert report.delivered_packets == pytest.approx(20 * 32)
        assert report.dropped_packets == pytest.approx(0.0)

    def test_determinism(self, engine, spec):
        deployment = simple_deployment("ipsec", ratio=0.5)
        a = engine.run(deployment, spec, batch_size=32, batch_count=20)
        b = engine.run(deployment, spec, batch_size=32, batch_count=20)
        assert a.throughput_gbps == b.throughput_gbps
        assert a.latency.mean == b.latency.mean

    def test_latency_positive(self, engine, spec):
        report = engine.run(simple_deployment(), spec, batch_size=32,
                            batch_count=10)
        assert report.latency.mean > 0

    def test_drops_accounted_via_profile(self, engine, spec):
        deployment = simple_deployment("probe")
        profile = BranchProfile(drop_fractions={
            deployment.graph.sources()[0]: 0.5
        })
        report = engine.run(deployment, spec, batch_size=32,
                            batch_count=10, branch_profile=profile)
        assert report.dropped_packets == pytest.approx(160.0)
        assert report.delivered_packets == pytest.approx(160.0)

    def test_throughput_bounded_by_offered_load(self, engine):
        light = TrafficSpec(size_law=FixedSize(128), offered_gbps=0.1)
        report = engine.run(simple_deployment("probe"), light,
                            batch_size=32, batch_count=20)
        assert report.throughput_gbps <= 0.11

    def test_gpu_resources_used_when_offloading(self, engine, spec):
        report = engine.run(simple_deployment("ipsec", ratio=1.0),
                            spec, batch_size=32, batch_count=10)
        assert any(p.startswith("gpu") for p in
                   report.processor_busy_seconds)
        assert report.overheads.kernel_launch > 0
        assert report.overheads.pcie_transfer > 0

    def test_cpu_only_uses_no_gpu(self, engine, spec):
        report = engine.run(simple_deployment("ipsec", ratio=0.0),
                            spec, batch_size=32, batch_count=10)
        assert not any(p.startswith("gpu") for p in
                       report.processor_busy_seconds)

    def test_persistent_kernel_raises_throughput(self, engine, spec):
        saturating = TrafficSpec(size_law=FixedSize(128),
                                 offered_gbps=200.0)
        launched = engine.run(
            simple_deployment("ipsec", ratio=1.0, persistent=False),
            saturating, batch_size=32, batch_count=60)
        persistent = engine.run(
            simple_deployment("ipsec", ratio=1.0, persistent=True),
            saturating, batch_size=32, batch_count=60)
        assert persistent.throughput_gbps > launched.throughput_gbps

    def test_interference_inflation_slows_cpu(self, engine, spec):
        saturating = TrafficSpec(size_law=FixedSize(128),
                                 offered_gbps=200.0)
        alone = engine.run(simple_deployment("ipsec"), saturating,
                           batch_size=32, batch_count=40)
        contended = engine.run(simple_deployment("ipsec"), saturating,
                               batch_size=32, batch_count=40,
                               cpu_time_inflation=1.5)
        assert contended.throughput_gbps < alone.throughput_gbps

    def test_measure_capacity_saturates(self, engine, spec):
        deployment = simple_deployment("ipv4")
        capacity = engine.session(deployment).measure_capacity(
            spec, batch_size=32, batch_count=40)
        assert capacity > 0
        # Offered load in the spec (40 G) exceeds the pipeline's
        # capacity, so capacity must be below it.
        assert capacity < 40.0


class TestBranchProfile:
    def test_measure_records_fractions(self, spec):
        graph = ElementGraph(name="branchy")
        rx = graph.add(FromDevice(name="rx"))
        switch = graph.add(HashSwitch(fanout=2, name="hs"))
        a = graph.add(Counter(name="a"))
        b = graph.add(Counter(name="b"))
        tx = graph.add(ToDevice(name="tx"))
        graph.connect(rx, switch)
        graph.connect(switch, a, src_port=0)
        graph.connect(switch, b, src_port=1)
        graph.connect(a, tx)
        graph.connect(b, tx)
        profile = BranchProfile.measure(graph, spec, sample_packets=256)
        fractions = profile.fractions_for(graph, "hs")
        assert set(fractions) <= {0, 1}
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_default_uniform_fractions(self, spec):
        graph = ElementGraph(name="plain")
        graph.chain(FromDevice(name="rx"), Counter(name="c"),
                    ToDevice(name="tx"))
        profile = BranchProfile()
        assert profile.fractions_for(graph, "c") == {0: 1.0}

    def test_tee_ports_carry_full_fraction(self, spec):
        from repro.elements.standard import Tee
        graph = ElementGraph(name="tee")
        rx = graph.add(FromDevice(name="rx"))
        tee = graph.add(Tee(fanout=2, name="t"))
        a = graph.add(ToDevice(name="a"))
        b = graph.add(ToDevice(name="b"))
        graph.connect(rx, tee)
        graph.connect(tee, a, src_port=0)
        graph.connect(tee, b, src_port=1)
        profile = BranchProfile()
        assert profile.fractions_for(graph, "t") == {0: 1.0, 1: 1.0}

    def test_drop_default_zero(self):
        assert BranchProfile().drop_for("anything") == 0.0

    def test_prefix_snapshots_equal_fresh_measures(self):
        """One pass with snapshots == one fresh measure per size."""
        from repro.traffic.dpi_profiles import make_pattern_set
        pattern = make_pattern_set()[0]

        def payload(rng, size):
            body = bytes(rng.randrange(256) for _ in range(size))
            return pattern + body[len(pattern):] if rng.random() < 0.4 \
                else body

        spec = TrafficSpec(size_law=FixedSize(256), seed=9,
                           payload_maker=payload)
        graph = ServiceFunctionChain(
            [make_nf("ids"), make_nf("nat")]).concatenated_graph()
        sizes = (20, 128, 160, 256)
        sample = BranchProfile.draw_sample(spec, 256, batch_size=64)
        profiles = BranchProfile.measure_prefixes(graph.clone(), sample,
                                                  sizes, batch_size=64)
        assert set(profiles) == set(sizes)
        for size in sizes:
            assert profiles[size] == BranchProfile.measure(
                graph.clone(), spec, sample_packets=size, batch_size=64)
        # 128 and 160 packets both end after batch 2 (of 64).
        assert profiles[128] == profiles[160]
        assert profiles[128] is not profiles[160]
        assert profiles[128] != profiles[256]

    def test_sample_shorter_than_largest_size_rejected(self):
        spec = TrafficSpec(seed=9)
        graph = ServiceFunctionChain([make_nf("nat")]).concatenated_graph()
        sample = BranchProfile.draw_sample(spec, 128, batch_size=64)
        assert len(sample) == 2
        with pytest.raises(ValueError, match="needs 4 batches"):
            BranchProfile.measure_prefixes(graph.clone(), sample,
                                           (128, 256), batch_size=64)
