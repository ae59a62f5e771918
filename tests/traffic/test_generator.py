"""Unit tests for the traffic generator."""

import pytest

from repro.net.packet import IPPROTO_TCP, IPPROTO_UDP
from repro.traffic.distributions import FixedSize, IMIXSize
from repro.traffic.generator import (
    TrafficGenerator,
    TrafficSpec,
    WIRE_OVERHEAD_BYTES,
)


class TestTrafficSpec:
    def test_rejects_nonpositive_load(self):
        with pytest.raises(ValueError):
            TrafficSpec(offered_gbps=0)

    @pytest.mark.parametrize("load", [float("nan"), float("inf")])
    def test_rejects_non_finite_load(self, load):
        with pytest.raises(ValueError, match="finite"):
            TrafficSpec(offered_gbps=load)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            TrafficSpec(protocol="sctp")

    def test_rejects_bad_ip_version(self):
        with pytest.raises(ValueError):
            TrafficSpec(ip_version=5)

    def test_packet_interval_matches_rate(self):
        spec = TrafficSpec(offered_gbps=10.0, size_law=FixedSize(64))
        bits = (64 + WIRE_OVERHEAD_BYTES) * 8
        expected_pps = 10e9 / bits
        assert abs(spec.packets_per_second() - expected_pps) < 1.0


class TestGeneration:
    def test_deterministic_for_same_seed(self):
        spec = TrafficSpec(seed=99)
        a = [p.to_bytes() for p in TrafficGenerator(spec).packets(20)]
        b = [p.to_bytes() for p in TrafficGenerator(spec).packets(20)]
        assert a == b

    def test_different_seeds_differ(self):
        a = [p.to_bytes() for p in TrafficGenerator(
            TrafficSpec(seed=1)).packets(20)]
        b = [p.to_bytes() for p in TrafficGenerator(
            TrafficSpec(seed=2)).packets(20)]
        assert a != b

    def test_seqnos_monotonic(self):
        gen = TrafficGenerator(TrafficSpec())
        seqnos = [p.seqno for p in gen.packets(10)]
        assert seqnos == list(range(10))

    def test_arrival_times_monotonic(self):
        gen = TrafficGenerator(TrafficSpec())
        times = [p.arrival_time for p in gen.packets(10)]
        assert times == sorted(times)
        assert len(set(times)) == 10

    def test_frame_sizes_match_law(self):
        gen = TrafficGenerator(TrafficSpec(size_law=FixedSize(256)))
        for packet in gen.packets(20):
            assert packet.wire_len == 256

    def test_imix_sizes(self):
        gen = TrafficGenerator(TrafficSpec(size_law=IMIXSize()))
        sizes = {p.wire_len for p in gen.packets(500)}
        assert sizes <= {64, 536, 1360}

    def test_tcp_protocol(self):
        gen = TrafficGenerator(TrafficSpec(protocol="tcp"))
        packet = gen.next_packet()
        assert packet.is_tcp
        assert packet.ip.protocol == IPPROTO_TCP

    def test_udp_protocol_default(self):
        packet = TrafficGenerator(TrafficSpec()).next_packet()
        assert packet.is_udp
        assert packet.ip.protocol == IPPROTO_UDP

    def test_ipv6_generation(self):
        gen = TrafficGenerator(TrafficSpec(ip_version=6))
        packet = gen.next_packet()
        assert packet.is_ipv6

    def test_flow_population_bounded(self):
        spec = TrafficSpec(flow_count=4)
        gen = TrafficGenerator(spec)
        flows = {p.five_tuple() for p in gen.packets(200)}
        assert len(flows) <= 4

    def test_batches_have_requested_size(self):
        gen = TrafficGenerator(TrafficSpec())
        batches = list(gen.batches(16, 3))
        assert [len(b) for b in batches] == [16, 16, 16]

    def test_payload_maker_hook(self):
        spec = TrafficSpec(
            size_law=FixedSize(128),
            payload_maker=lambda rng, n: b"A" * n,
        )
        packet = TrafficGenerator(spec).next_packet()
        assert set(packet.payload) == {ord("A")}

    def test_tcp_seq_advances_per_flow(self):
        spec = TrafficSpec(protocol="tcp", flow_count=1,
                           size_law=FixedSize(128))
        gen = TrafficGenerator(spec)
        first, second = gen.next_packet(), gen.next_packet()
        assert second.l4.seq == first.l4.seq + len(first.payload)
