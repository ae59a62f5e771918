"""Unit tests for five-tuples and flow tables."""

import pytest

from repro.net.flow import FiveTuple, FlowTable
from repro.net.packet import IPv4Header, Packet, UDPHeader


def flow_packet(sport):
    return Packet(
        ip=IPv4Header(src="10.0.0.1", dst="10.0.0.2"),
        l4=UDPHeader(src_port=sport, dst_port=80),
    )


class TestFiveTuple:
    def test_of_packet(self):
        key = FiveTuple.of(flow_packet(1234))
        assert key == ("10.0.0.1", "10.0.0.2", 17, 1234, 80)

    def test_reversed(self):
        key = FiveTuple.of(flow_packet(1234))
        rev = key.reversed()
        assert rev.src == key.dst
        assert rev.src_port == key.dst_port
        assert rev.reversed() == key


class TestFlowTable:
    def test_observe_creates_flow(self):
        table = FlowTable()
        state = table.observe(flow_packet(1))
        assert state.packets_seen == 1
        assert len(table) == 1

    def test_observe_accumulates(self):
        table = FlowTable()
        table.observe(flow_packet(1))
        state = table.observe(flow_packet(1))
        assert state.packets_seen == 2
        assert len(table) == 1

    def test_distinct_flows_distinct_entries(self):
        table = FlowTable()
        table.observe(flow_packet(1))
        table.observe(flow_packet(2))
        assert len(table) == 2

    def test_lru_eviction(self):
        table = FlowTable(capacity=2)
        table.observe(flow_packet(1))
        table.observe(flow_packet(2))
        table.observe(flow_packet(3))  # evicts flow 1
        assert len(table) == 2
        assert table.evictions == 1
        assert FiveTuple.of(flow_packet(1)) not in table

    def test_lookup_refreshes_lru_position(self):
        table = FlowTable(capacity=2)
        table.observe(flow_packet(1))
        table.observe(flow_packet(2))
        table.lookup(FiveTuple.of(flow_packet(1)))  # refresh flow 1
        table.observe(flow_packet(3))  # should evict flow 2 instead
        assert FiveTuple.of(flow_packet(1)) in table
        assert FiveTuple.of(flow_packet(2)) not in table

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowTable(capacity=0)

    def test_remove(self):
        table = FlowTable()
        table.observe(flow_packet(1))
        table.remove(FiveTuple.of(flow_packet(1)))
        assert len(table) == 0
