"""Unit tests for the Element base class."""

import pytest

from repro.elements.element import (
    ActionProfile,
    Element,
    PortSpec,
    TrafficClass,
)
from repro.net.batch import PacketBatch
from repro.net.packet import Packet


class PassThrough(Element):
    def process(self, batch):
        return {0: batch}


class DropHalf(Element):
    traffic_class = TrafficClass.FILTER
    actions = ActionProfile(drops=True)

    def process(self, batch):
        survivors = []
        for index, packet in enumerate(batch.live_packets):
            if index % 2:
                packet.mark_dropped("test")
            else:
                survivors.append(packet)
        return {0: PacketBatch(survivors)}


class BadPort(Element):
    def process(self, batch):
        return {5: batch}


class TestBookkeeping:
    def test_push_counts_packets(self):
        element = PassThrough()
        element.push(PacketBatch([Packet() for _ in range(4)]))
        assert element.packets_processed == 4
        assert element.packets_dropped == 0

    def test_push_counts_drops(self):
        element = DropHalf()
        element.push(PacketBatch([Packet() for _ in range(6)]))
        assert element.packets_dropped == 3

    def test_port_packet_counts(self):
        element = PassThrough()
        element.push(PacketBatch([Packet() for _ in range(3)]))
        assert element.port_packet_counts[0] == 3

    def test_push_to_nonexistent_port_rejected(self):
        with pytest.raises(ValueError):
            BadPort().push(PacketBatch([Packet()]))


class TestMetadata:
    def test_default_signature_unique(self):
        assert PassThrough().signature() != PassThrough().signature()

    def test_names_default_unique(self):
        assert PassThrough().name != PassThrough().name

    def test_explicit_name(self):
        assert PassThrough(name="mine").name == "mine"

    def test_kind_is_class_name(self):
        assert PassThrough().kind == "PassThrough"

    def test_default_cost_hints_empty(self):
        assert PassThrough().cost_hints() == {}


class TestActionProfile:
    def test_union(self):
        a = ActionProfile(reads_header=True)
        b = ActionProfile(writes_payload=True, drops=True)
        union = a.union(b)
        assert union.reads_header
        assert union.writes_payload
        assert union.drops
        assert not union.writes_header

    def test_writes_property(self):
        assert ActionProfile(writes_header=True).writes
        assert ActionProfile(adds_removes_bits=True).writes
        assert not ActionProfile(reads_header=True).writes

    def test_reads_property(self):
        assert ActionProfile(reads_payload=True).reads
        assert not ActionProfile().reads

    def test_port_spec_defaults(self):
        spec = PortSpec()
        assert spec.inputs == 1
        assert spec.outputs == 1
