"""Standard element library (the Click built-ins the workloads use)."""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.elements.element import (
    ActionProfile,
    Element,
    PortSpec,
    TrafficClass,
)
from repro.net.batch import PacketBatch
from repro.net.packet import Packet


class FromDevice(Element):
    """Packet source (stands in for DPDK RX on a NIC queue)."""

    traffic_class = TrafficClass.SOURCE
    actions = ActionProfile()

    def __init__(self, device: str = "eth0", name: Optional[str] = None):
        super().__init__(name=name or f"FromDevice({device})")
        self.device = device

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        return {0: batch}

    def signature(self) -> Hashable:
        return ("FromDevice", self.device)


class ToDevice(Element):
    """Packet sink (stands in for DPDK TX)."""

    traffic_class = TrafficClass.SINK
    actions = ActionProfile()

    def __init__(self, device: str = "eth0", name: Optional[str] = None):
        super().__init__(name=name or f"ToDevice({device})",
                         ports=PortSpec(inputs=1, outputs=1))
        self.device = device

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        return {0: batch}

    def signature(self) -> Hashable:
        return ("ToDevice", self.device)


class Discard(Element):
    """Drop every packet."""

    traffic_class = TrafficClass.SINK
    actions = ActionProfile(drops=True)

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            packet.mark_dropped("Discard")
        return {0: PacketBatch(creation_time=batch.creation_time)}


class CheckIPHeader(Element):
    """Validate IP headers; drop malformed packets.

    Appears at the head of virtually every NF and is the canonical
    example of a redundant element the synthesizer de-duplicates.
    """

    traffic_class = TrafficClass.FILTER
    idempotent = True
    actions = ActionProfile(
        reads_header=True, drops=True,
        reads_fields={"eth.type", "ip.ttl"},
    )

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        survivors: List[Packet] = []
        for packet in batch.live_packets:
            valid = packet.ip is not None
            if packet.is_ipv4 and packet.ip.ttl <= 0:
                valid = False
            if valid:
                survivors.append(packet)
            else:
                packet.mark_dropped("CheckIPHeader")
        return {0: PacketBatch(survivors,
                               creation_time=batch.creation_time)}

    def signature(self) -> Hashable:
        return ("CheckIPHeader",)


class Classifier(Element):
    """Route packets to output ports by a predicate list.

    ``rules`` is an ordered list of predicates; the packet goes to the
    port of the first predicate it satisfies, or to the last port
    (default) if none matches.  Splitting a batch across ports is the
    exact re-organization the paper's Fig. 5 charges for.
    """

    traffic_class = TrafficClass.CLASSIFIER
    actions = ActionProfile(reads_header=True)

    def __init__(self, rules: Sequence[Callable[[Packet], bool]],
                 name: Optional[str] = None,
                 rule_key: Optional[Hashable] = None):
        super().__init__(name=name,
                         ports=PortSpec(inputs=1, outputs=len(rules) + 1))
        self.rules = list(rules)
        self.rule_key = rule_key

    def classify(self, packet: Packet) -> int:
        for port, rule in enumerate(self.rules):
            if rule(packet):
                return port
        return len(self.rules)

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        return batch.split_by(self.classify)

    def signature(self) -> Hashable:
        if self.rule_key is not None:
            return ("Classifier", self.rule_key)
        return super().signature()

    def cost_hints(self) -> Dict[str, float]:
        return {"rules": float(len(self.rules))}


class HashSwitch(Element):
    """Spread packets over N ports by flow hash (RSS-style)."""

    traffic_class = TrafficClass.CLASSIFIER
    actions = ActionProfile(reads_header=True)

    def __init__(self, fanout: int = 2, name: Optional[str] = None):
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        super().__init__(name=name, ports=PortSpec(inputs=1, outputs=fanout))
        self.fanout = fanout

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        return batch.split_by(lambda p: hash(p.five_tuple()) % self.fanout)

    def signature(self) -> Hashable:
        return ("HashSwitch", self.fanout)


class DecIPTTL(Element):
    """Decrement IPv4 TTL / IPv6 hop limit; drop expired packets."""

    traffic_class = TrafficClass.MODIFIER
    actions = ActionProfile(
        reads_header=True, writes_header=True, drops=True,
        reads_fields={"eth.type", "ip.ttl"},
        writes_fields={"ip.ttl"},  # + derived ip.checksum
    )

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        survivors: List[Packet] = []
        for packet in batch.live_packets:
            if packet.is_ipv4:
                packet.ip.ttl -= 1
                expired = packet.ip.ttl <= 0
            elif packet.is_ipv6:
                packet.ip.hop_limit -= 1
                expired = packet.ip.hop_limit <= 0
            else:
                expired = False
            if expired:
                packet.mark_dropped("DecIPTTL")
            else:
                survivors.append(packet)
        return {0: PacketBatch(survivors, creation_time=batch.creation_time)}

    def signature(self) -> Hashable:
        return ("DecIPTTL",)


class Counter(Element):
    """Read-only packet/byte counter (a probe)."""

    traffic_class = TrafficClass.OBSERVER
    actions = ActionProfile(
        reads_header=True,
        reads_fields={"eth.type", "ip.len"},
    )

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name)
        self.count = 0
        self.byte_count = 0

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        live = batch.live_packets
        self.count += len(live)
        self.byte_count += sum(p.wire_len for p in live)
        return {0: batch}


class Tee(Element):
    """Duplicate every packet to all output ports.

    Each clone is stamped with a ``tee_branch`` annotation (the output
    port index) so a downstream :class:`repro.core.merge.XorMerge` can
    attribute conflicting writes to the branch that made them.
    """

    traffic_class = TrafficClass.CLASSIFIER
    actions = ActionProfile()

    def __init__(self, fanout: int = 2, name: Optional[str] = None):
        if fanout < 2:
            raise ValueError("Tee needs at least 2 outputs")
        super().__init__(name=name, ports=PortSpec(inputs=1, outputs=fanout))
        self.fanout = fanout

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        outputs: Dict[int, PacketBatch] = {0: batch}
        for port in range(1, self.fanout):
            clones = [p.clone() for p in batch.packets]
            for clone in clones:
                clone.annotations["tee_branch"] = port
            outputs[port] = PacketBatch(
                clones, creation_time=batch.creation_time,
            )
        for packet in batch.packets:
            packet.annotations["tee_branch"] = 0
        return outputs


class Queue(Element):
    """A store-and-forward queue (a shaper for synthesis purposes).

    Functionally transparent in batch execution; its role is to carry
    scheduling metadata (capacity) and to pin down re-ordering rules.
    """

    traffic_class = TrafficClass.SHAPER
    actions = ActionProfile()

    def __init__(self, capacity: int = 1024, name: Optional[str] = None):
        super().__init__(name=name)
        self.capacity = capacity
        self.overflow_drops = 0

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        live = batch.live_packets
        if len(live) > self.capacity:
            for packet in live[self.capacity:]:
                packet.mark_dropped("Queue overflow")
                self.overflow_drops += 1
            live = live[: self.capacity]
        return {0: PacketBatch(live, creation_time=batch.creation_time)}


class Paint(Element):
    """Annotate packets with a colour (Click's Paint)."""

    traffic_class = TrafficClass.MODIFIER
    idempotent = True
    actions = ActionProfile()  # annotation only: no wire bytes touched

    def __init__(self, colour: int, name: Optional[str] = None):
        super().__init__(name=name)
        self.colour = colour

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            packet.annotations["paint"] = self.colour
        return {0: batch}

    def signature(self) -> Hashable:
        return ("Paint", self.colour)


class PaintSwitch(Element):
    """Route packets by their paint annotation."""

    traffic_class = TrafficClass.CLASSIFIER
    actions = ActionProfile()

    def __init__(self, fanout: int = 2, name: Optional[str] = None):
        super().__init__(name=name, ports=PortSpec(inputs=1, outputs=fanout))
        self.fanout = fanout

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        return batch.split_by(
            lambda p: int(p.annotations.get("paint", 0)) % self.fanout)


class StripEther(Element):
    """Remove the Ethernet header (size-changing)."""

    traffic_class = TrafficClass.MODIFIER
    idempotent = True
    actions = ActionProfile(writes_header=True, adds_removes_bits=True)

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            packet.annotations["ether_stripped"] = True
        return {0: batch}

    def signature(self) -> Hashable:
        return ("StripEther",)


class EtherEncap(Element):
    """(Re-)add an Ethernet header (size-changing)."""

    traffic_class = TrafficClass.MODIFIER
    idempotent = True
    actions = ActionProfile(writes_header=True, adds_removes_bits=True)

    def __init__(self, src_mac: str = "02:00:00:00:00:01",
                 dst_mac: str = "02:00:00:00:00:02",
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.src_mac = src_mac
        self.dst_mac = dst_mac

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            packet.eth.src_mac = self.src_mac
            packet.eth.dst_mac = self.dst_mac
            packet.annotations.pop("ether_stripped", None)
        return {0: batch}

    def signature(self) -> Hashable:
        return ("EtherEncap", self.src_mac, self.dst_mac)
