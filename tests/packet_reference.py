"""Frozen address parsers and checksum: the oracle of ``repro.net.packet``.

These are :func:`~repro.net.packet.ipv4_to_int`,
:func:`~repro.net.packet.mac_to_bytes` and
:func:`~repro.net.packet.internet_checksum` as they were before the
parsers were memoized and the checksum summed one ``struct.unpack``:
every call parses its text afresh and the checksum adds one 16-bit
word at a time.  ``tests/net/test_packet_reference.py`` requires the
product functions to give the same values, and to raise the same
exception type with the same message, also on a repeated call.

Its value is being frozen: do not "fix" or speed it up.  Product code
must not import this module.
"""

from __future__ import annotations

import struct


def mac_to_bytes(mac: str) -> bytes:
    """Convert ``"aa:bb:cc:dd:ee:ff"`` to 6 raw bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"malformed MAC address: {mac!r}")
    return bytes(int(p, 16) for p in parts)


def ipv4_to_int(addr: str) -> int:
    """Convert dotted-quad IPv4 text to a 32-bit integer."""
    parts = addr.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {addr!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {addr!r}")
        value = (value << 8) | octet
    return value


def internet_checksum(data: bytes) -> int:
    """RFC 1071 16-bit one's-complement checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF
