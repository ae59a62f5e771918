"""IPsec gateway: AES-128-CTR encryption + HMAC-SHA1 authentication.

The paper's IPsec workload encrypts with AES-128-CTR and authenticates
with HMAC-SHA1 (Section III.A.2).  No crypto packages may be assumed,
so AES-128 is implemented here from the FIPS-197 specification (S-box,
key expansion, rounds); HMAC-SHA1 uses the standard library's
``hmac``/``hashlib``.  The implementation is validated against the
FIPS-197 and RFC 3686 test vectors in the test suite.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct
from typing import Dict, Hashable, List, Optional

from repro.elements.element import ActionProfile, TrafficClass
from repro.elements.graph import ElementGraph
from repro.elements.offload import OffloadableElement, OffloadTraits
from repro.elements.standard import CheckIPHeader
from repro.net.batch import PacketBatch
from repro.nf.base import NetworkFunction

# ---------------------------------------------------------------------------
# AES-128 block cipher (encryption direction; CTR mode needs no decryptor)
# ---------------------------------------------------------------------------

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76"
    "ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d83115"
    "04c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f84"
    "53d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa8"
    "51a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d1973"
    "60814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479"
    "e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a"
    "703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df"
    "8ca1890dbfe6426841992d0fb054bb16"
)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(value: int) -> int:
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


# T-table formulation (the standard software AES optimization): each
# table fuses SubBytes + MixColumns for one byte position, so a round
# reduces to 16 table lookups and XORs per block.
def _build_t_tables():
    t0, t1, t2, t3 = [], [], [], []
    for x in range(256):
        s = _SBOX[x]
        s2 = _xtime(s)
        s3 = s2 ^ s
        t0.append((s2 << 24) | (s << 16) | (s << 8) | s3)
        t1.append((s3 << 24) | (s2 << 16) | (s << 8) | s)
        t2.append((s << 24) | (s3 << 16) | (s2 << 8) | s)
        t3.append((s << 24) | (s << 16) | (s3 << 8) | s2)
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_t_tables()
_PACK_BLOCK = struct.Struct(">IIII").pack


def _expand_key_words(key: bytes) -> List[int]:
    """AES-128 key schedule as 44 big-endian 32-bit words."""
    if len(key) != 16:
        raise ValueError("AES-128 requires a 16-byte key")
    words = [struct.unpack(">I", key[i:i + 4])[0] for i in range(0, 16, 4)]
    for i in range(4, 44):
        temp = words[i - 1]
        if i % 4 == 0:
            temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
            temp = ((_SBOX[(temp >> 24) & 0xFF] << 24)         # SubWord
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF])
            temp ^= _RCON[i // 4 - 1] << 24
        words.append(words[i - 4] ^ temp)
    return words


class AES128:
    """AES-128 encryptor with a precomputed key schedule (T-tables).

    Immutable once built: an IPsec element expands its key once, and
    clones of the element share the schedule.
    """

    def __init__(self, key: bytes):
        self._words = _expand_key_words(key)
        # Round keys 1..9 as 4-tuples, for the inlined rounds of ctr().
        self._middle_rounds = tuple(
            tuple(self._words[4 * r:4 * r + 4]) for r in range(1, 10)
        )

    def __deepcopy__(self, memo) -> "AES128":
        return self

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        words = self._words
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        sbox = _SBOX
        c0, c1, c2, c3 = struct.unpack(">IIII", block)
        c0 ^= words[0]
        c1 ^= words[1]
        c2 ^= words[2]
        c3 ^= words[3]
        for round_index in range(1, 10):
            base = 4 * round_index
            n0 = (t0[(c0 >> 24) & 0xFF] ^ t1[(c1 >> 16) & 0xFF]
                  ^ t2[(c2 >> 8) & 0xFF] ^ t3[c3 & 0xFF]
                  ^ words[base])
            n1 = (t0[(c1 >> 24) & 0xFF] ^ t1[(c2 >> 16) & 0xFF]
                  ^ t2[(c3 >> 8) & 0xFF] ^ t3[c0 & 0xFF]
                  ^ words[base + 1])
            n2 = (t0[(c2 >> 24) & 0xFF] ^ t1[(c3 >> 16) & 0xFF]
                  ^ t2[(c0 >> 8) & 0xFF] ^ t3[c1 & 0xFF]
                  ^ words[base + 2])
            n3 = (t0[(c3 >> 24) & 0xFF] ^ t1[(c0 >> 16) & 0xFF]
                  ^ t2[(c1 >> 8) & 0xFF] ^ t3[c2 & 0xFF]
                  ^ words[base + 3])
            c0, c1, c2, c3 = n0, n1, n2, n3
        # Final round: SubBytes + ShiftRows + AddRoundKey (no Mix).
        n0 = ((sbox[(c0 >> 24) & 0xFF] << 24)
              | (sbox[(c1 >> 16) & 0xFF] << 16)
              | (sbox[(c2 >> 8) & 0xFF] << 8)
              | sbox[c3 & 0xFF]) ^ words[40]
        n1 = ((sbox[(c1 >> 24) & 0xFF] << 24)
              | (sbox[(c2 >> 16) & 0xFF] << 16)
              | (sbox[(c3 >> 8) & 0xFF] << 8)
              | sbox[c0 & 0xFF]) ^ words[41]
        n2 = ((sbox[(c2 >> 24) & 0xFF] << 24)
              | (sbox[(c3 >> 16) & 0xFF] << 16)
              | (sbox[(c0 >> 8) & 0xFF] << 8)
              | sbox[c1 & 0xFF]) ^ words[42]
        n3 = ((sbox[(c3 >> 24) & 0xFF] << 24)
              | (sbox[(c0 >> 16) & 0xFF] << 16)
              | (sbox[(c1 >> 8) & 0xFF] << 8)
              | sbox[c2 & 0xFF]) ^ words[43]
        return struct.pack(">IIII", n0, n1, n2, n3)

    def ctr(self, nonce: bytes, data: bytes,
            initial_counter: int = 1) -> bytes:
        """AES-128-CTR per RFC 3686: ``data`` XOR the keystream.

        The counter block is ``nonce`` (12 bytes: nonce + IV in RFC
        terms) followed by the big-endian 32-bit block counter, which
        starts at ``initial_counter`` and wraps modulo 2**32.  The
        keystream block ``i`` is ``encrypt_block`` of counter block
        ``i``; this loop inlines it with the round keys in locals and
        XORs the whole packet at once.  CTR is an involution: applying
        it twice with the same parameters restores the plaintext.
        """
        if len(nonce) != 12:
            raise ValueError("CTR nonce must be 12 bytes (nonce + IV)")
        t0, t1, t2, t3, sbox = _T0, _T1, _T2, _T3, _SBOX
        words = self._words
        f0, f1, f2, f3 = words[40:44]
        # The nonce words of the counter block never change.
        x0, x1, x2 = struct.unpack(">III", nonce)
        x0 ^= words[0]
        x1 ^= words[1]
        x2 ^= words[2]
        k3 = words[3]
        rounds = self._middle_rounds
        keystream = bytearray()
        counter = initial_counter
        # Every state word stays below 2**32, so ``>> 24`` needs no mask.
        for _ in range((len(data) + 15) // 16):
            c0, c1, c2 = x0, x1, x2
            c3 = (counter & 0xFFFFFFFF) ^ k3
            for r0, r1, r2, r3 in rounds:
                n0 = (t0[c0 >> 24] ^ t1[(c1 >> 16) & 0xFF]
                      ^ t2[(c2 >> 8) & 0xFF] ^ t3[c3 & 0xFF] ^ r0)
                n1 = (t0[c1 >> 24] ^ t1[(c2 >> 16) & 0xFF]
                      ^ t2[(c3 >> 8) & 0xFF] ^ t3[c0 & 0xFF] ^ r1)
                n2 = (t0[c2 >> 24] ^ t1[(c3 >> 16) & 0xFF]
                      ^ t2[(c0 >> 8) & 0xFF] ^ t3[c1 & 0xFF] ^ r2)
                c3 = (t0[c3 >> 24] ^ t1[(c0 >> 16) & 0xFF]
                      ^ t2[(c1 >> 8) & 0xFF] ^ t3[c2 & 0xFF] ^ r3)
                c0, c1, c2 = n0, n1, n2
            keystream += _PACK_BLOCK(
                ((sbox[c0 >> 24] << 24) | (sbox[(c1 >> 16) & 0xFF] << 16)
                 | (sbox[(c2 >> 8) & 0xFF] << 8) | sbox[c3 & 0xFF]) ^ f0,
                ((sbox[c1 >> 24] << 24) | (sbox[(c2 >> 16) & 0xFF] << 16)
                 | (sbox[(c3 >> 8) & 0xFF] << 8) | sbox[c0 & 0xFF]) ^ f1,
                ((sbox[c2 >> 24] << 24) | (sbox[(c3 >> 16) & 0xFF] << 16)
                 | (sbox[(c0 >> 8) & 0xFF] << 8) | sbox[c1 & 0xFF]) ^ f2,
                ((sbox[c3 >> 24] << 24) | (sbox[(c0 >> 16) & 0xFF] << 16)
                 | (sbox[(c1 >> 8) & 0xFF] << 8) | sbox[c2 & 0xFF]) ^ f3,
            )
            counter += 1
        width = len(data)
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(keystream[:width], "big")
                ).to_bytes(width, "big")


def aes128_ctr(key: bytes, nonce: bytes, data: bytes,
               initial_counter: int = 1) -> bytes:
    """AES-128 in CTR mode per RFC 3686 (16-byte counter block).

    One-shot form of :meth:`AES128.ctr`: it expands ``key`` on every
    call, so per-packet callers should hold an :class:`AES128`.
    """
    return AES128(key).ctr(nonce, data, initial_counter)


def hmac_sha1(key: bytes, data: bytes, truncate: int = 12) -> bytes:
    """HMAC-SHA1 authentication tag (96-bit truncation, as IPsec uses)."""
    digest = _hmac.new(key, data, hashlib.sha1).digest()
    return digest[:truncate]


# ---------------------------------------------------------------------------
# The IPsec elements and NF
# ---------------------------------------------------------------------------

ESP_OVERHEAD_BYTES = 8 + 12  # ESP header (SPI + seq) + truncated ICV


class IPsecEncrypt(OffloadableElement):
    """ESP-style encrypt-then-MAC element.

    Encrypts the payload with AES-128-CTR (per-packet counter derived
    from the packet seqno) and appends a truncated HMAC-SHA1 tag.  The
    whole payload crosses PCIe in both directions, making this the
    transfer-heaviest offloadable element — the reason its optimal
    offload ratio is interior (~70 %, Fig. 6).
    """

    traffic_class = TrafficClass.MODIFIER
    actions = ActionProfile(
        reads_payload=True, writes_payload=True,
        adds_removes_bits=True,
        reads_fields={"payload"},
        writes_fields={"payload"},  # + resize-implied length/checksum
    )
    traits = OffloadTraits(
        h2d_bytes_per_packet=1.0,
        d2h_bytes_per_packet=1.0,
        relative=True,
        divergent=False,
        compute_intensity=4.0,
    )

    def __init__(self, key: bytes = b"0123456789abcdef",
                 auth_key: bytes = b"fedcba9876543210ffff",
                 spi: int = 0x1001,
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.key = key
        self.auth_key = auth_key
        self.spi = spi
        self.cipher = AES128(key)

    def _nonce(self, seqno: int) -> bytes:
        return struct.pack("!IQ", self.spi & 0xFFFFFFFF,
                           seqno & 0xFFFFFFFFFFFFFFFF)

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        for packet in batch.live_packets:
            ciphertext = self.cipher.ctr(self._nonce(packet.seqno),
                                         packet.payload)
            esp_header = struct.pack("!II", self.spi,
                                     packet.seqno & 0xFFFFFFFF)
            tag = hmac_sha1(self.auth_key, esp_header + ciphertext)
            packet.payload = esp_header + ciphertext + tag
            packet.annotations["esp"] = True
        return {0: batch}

    def signature(self) -> Hashable:
        return ("IPsecEncrypt", self.key, self.auth_key, self.spi)


class IPsecDecrypt(OffloadableElement):
    """Verify-then-decrypt counterpart of :class:`IPsecEncrypt`."""

    traffic_class = TrafficClass.MODIFIER
    actions = ActionProfile(
        reads_payload=True, writes_payload=True,
        adds_removes_bits=True, drops=True,
        reads_fields={"payload"},
        writes_fields={"payload"},
    )
    traits = IPsecEncrypt.traits

    def __init__(self, key: bytes = b"0123456789abcdef",
                 auth_key: bytes = b"fedcba9876543210ffff",
                 name: Optional[str] = None):
        super().__init__(name=name)
        self.key = key
        self.auth_key = auth_key
        self.cipher = AES128(key)
        self.auth_failures = 0

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        survivors = []
        for packet in batch.live_packets:
            payload = packet.payload
            if len(payload) < ESP_OVERHEAD_BYTES:
                packet.mark_dropped("ESP too short")
                self.auth_failures += 1
                continue
            esp_header, body, tag = (payload[:8],
                                     payload[8:-12],
                                     payload[-12:])
            expected = hmac_sha1(self.auth_key, esp_header + body)
            if not _hmac.compare_digest(tag, expected):
                packet.mark_dropped("ESP auth failure")
                self.auth_failures += 1
                continue
            spi, seqno = struct.unpack("!II", esp_header)
            nonce = struct.pack("!IQ", spi, packet.seqno
                                & 0xFFFFFFFFFFFFFFFF)
            packet.payload = self.cipher.ctr(nonce, body)
            packet.annotations.pop("esp", None)
            survivors.append(packet)
        return {0: PacketBatch(survivors, creation_time=batch.creation_time)}

    def signature(self) -> Hashable:
        return ("IPsecDecrypt", self.key, self.auth_key)


class IPsecTerminator(NetworkFunction):
    """IPsec tunnel terminator NF: verify-then-decrypt inbound ESP.

    The receive-side counterpart of :class:`IPsecGateway`; packets
    whose authentication tag fails verification are dropped.  Together
    the two NFs model a full VPN tunnel over the simulated platform.
    """

    nf_type = "ipsec-term"
    actions = ActionProfile(
        reads_header=True, reads_payload=True,
        writes_header=True, writes_payload=True,
        adds_removes_bits=True, drops=True,
        reads_fields={"eth.type", "payload"},
        writes_fields={"payload"},  # + resize-implied length/checksum
    )

    def __init__(self, key: bytes = b"0123456789abcdef",
                 auth_key: bytes = b"fedcba9876543210ffff",
                 name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.key = key
        self.auth_key = auth_key

    def build_core(self) -> ElementGraph:
        """Check headers, then authenticate and decrypt the payload."""
        graph = ElementGraph(name=f"{self.name}/core")
        graph.chain(
            CheckIPHeader(name=f"{self.name}/check"),
            IPsecDecrypt(self.key, self.auth_key,
                         name=f"{self.name}/decrypt"),
        )
        return graph


class IPsecGateway(NetworkFunction):
    """IPsec encryption gateway NF (the paper's compute-heavy workload)."""

    nf_type = "ipsec"
    actions = ActionProfile(
        reads_header=True, reads_payload=True,
        writes_header=True, writes_payload=True,
        adds_removes_bits=True,
        reads_fields={"eth.type", "payload"},
        writes_fields={"payload"},  # + resize-implied length/checksum
    )

    def __init__(self, key: bytes = b"0123456789abcdef",
                 auth_key: bytes = b"fedcba9876543210ffff",
                 name: Optional[str] = None, **kwargs):
        super().__init__(name=name, **kwargs)
        self.key = key
        self.auth_key = auth_key

    def build_core(self) -> ElementGraph:
        graph = ElementGraph(name=f"{self.name}/core")
        graph.chain(
            CheckIPHeader(name=f"{self.name}/check"),
            IPsecEncrypt(self.key, self.auth_key,
                         name=f"{self.name}/encrypt"),
        )
        return graph


__all__ = [
    "AES128",
    "aes128_ctr",
    "hmac_sha1",
    "IPsecEncrypt",
    "IPsecDecrypt",
    "IPsecGateway",
    "IPsecTerminator",
    "ESP_OVERHEAD_BYTES",
]
