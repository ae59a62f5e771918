"""Packet trace capture and replay.

Real evaluations often replay captured traffic instead of synthesizing
it.  This module defines a compact binary trace format (a pcap-like
container specialized to this library's frame model) and a replay
source with the same interface as
:class:`~repro.traffic.generator.TrafficGenerator`, so deployments can
be driven by recorded traffic:

    record_trace(path, generator.packets(10_000))
    replay = TraceReplay(path)
    batch = replay.next_batch(64)

Format (little-endian):

- header: magic ``RPTR``, u16 version, u32 packet count;
- per packet: f64 arrival time, u32 seqno, u16 frame length, frame
  bytes (as produced by ``Packet.to_bytes``).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Union

from repro.net.batch import PacketBatch
from repro.net.packet import Packet

MAGIC = b"RPTR"
VERSION = 1

_HEADER = struct.Struct("<4sHI")
_RECORD = struct.Struct("<dIH")

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed."""


def write_trace(destination: Union[PathLike, BinaryIO],
                packets: Iterable[Packet]) -> int:
    """Write ``packets`` to a trace; returns the packet count.

    The count is patched into the header after the body is written, so
    the input may be a generator.
    """
    own_handle = False
    if isinstance(destination, (str, Path)):
        handle: BinaryIO = open(destination, "wb")
        own_handle = True
    else:
        handle = destination
    try:
        handle.write(_HEADER.pack(MAGIC, VERSION, 0))
        count = 0
        for packet in packets:
            frame = packet.to_bytes()
            if len(frame) > 0xFFFF:
                raise TraceFormatError("frame exceeds 65535 bytes")
            handle.write(_RECORD.pack(packet.arrival_time,
                                      packet.seqno & 0xFFFFFFFF,
                                      len(frame)))
            handle.write(frame)
            count += 1
        handle.seek(0)
        handle.write(_HEADER.pack(MAGIC, VERSION, count))
        return count
    finally:
        if own_handle:
            handle.close()


def read_trace(source: Union[PathLike, BinaryIO]) -> Iterator[Packet]:
    """Yield the packets of a trace in order."""
    own_handle = False
    if isinstance(source, (str, Path)):
        handle: BinaryIO = open(source, "rb")
        own_handle = True
    else:
        handle = source
    try:
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceFormatError("truncated trace header")
        magic, version, count = _HEADER.unpack(header)
        if magic != MAGIC:
            raise TraceFormatError("not a packet trace (bad magic)")
        if version != VERSION:
            raise TraceFormatError(f"unsupported trace version {version}")
        for _index in range(count):
            record = handle.read(_RECORD.size)
            if len(record) != _RECORD.size:
                raise TraceFormatError("truncated trace record")
            arrival, seqno, length = _RECORD.unpack(record)
            frame = handle.read(length)
            if len(frame) != length:
                raise TraceFormatError("truncated frame body")
            yield Packet.from_bytes(frame, seqno=seqno,
                                    arrival_time=arrival)
    finally:
        if own_handle:
            handle.close()


def record_trace(path: PathLike, packets: Iterable[Packet]) -> int:
    """Alias of :func:`write_trace` for symmetry with TraceReplay."""
    return write_trace(path, packets)


class TraceReplay:
    """Replays a trace with the TrafficGenerator batch interface.

    ``loop=True`` restarts the trace when exhausted (seqnos and
    arrival times are re-based so the stream stays monotonic);
    otherwise the final batch may be short and subsequent batches are
    empty.
    """

    def __init__(self, path: PathLike, loop: bool = False):
        self.path = Path(path)
        self.loop = loop
        self._packets: List[Packet] = list(read_trace(self.path))
        if not self._packets:
            raise TraceFormatError("trace contains no packets")
        self._cursor = 0
        self._epoch = 0
        span = (self._packets[-1].arrival_time
                - self._packets[0].arrival_time)
        gap = span / max(1, len(self._packets) - 1)
        self._loop_span = span + gap
        self._loop_seqnos = (self._packets[-1].seqno
                             - self._packets[0].seqno + 1)

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def exhausted(self) -> bool:
        return not self.loop and self._cursor >= len(self._packets)

    def next_packet(self) -> Packet:
        if self._cursor >= len(self._packets):
            if not self.loop:
                raise StopIteration("trace exhausted")
            self._cursor = 0
            self._epoch += 1
        template = self._packets[self._cursor]
        self._cursor += 1
        packet = template.clone()
        packet.seqno = template.seqno + self._epoch * self._loop_seqnos
        packet.arrival_time = (template.arrival_time
                               + self._epoch * self._loop_span)
        return packet

    def packets(self, count: int) -> Iterator[Packet]:
        for _ in range(count):
            if self.exhausted:
                return
            yield self.next_packet()

    def next_batch(self, batch_size: int) -> PacketBatch:
        batch = PacketBatch(list(self.packets(batch_size)))
        if batch.packets:
            batch.creation_time = batch.packets[0].arrival_time
        return batch

    def batches(self, batch_size: int, count: int) -> Iterator[PacketBatch]:
        for _ in range(count):
            batch = self.next_batch(batch_size)
            if not batch.packets:
                return
            yield batch
