"""IPsec gateway: AES-128-CTR encryption + HMAC-SHA1 authentication.

The paper's IPsec workload encrypts with AES-128-CTR and authenticates
with HMAC-SHA1 (Section III.A.2).  No crypto packages may be assumed,
so AES-128 is implemented here from the FIPS-197 specification (S-box,
key expansion, rounds); HMAC-SHA1 uses the standard library's
``hmac``/``hashlib``.  The implementation is validated against the
FIPS-197 and RFC 3686 test vectors in the test suite.

CTR mode runs byte-sliced over a whole packet batch
(:meth:`AES128.ctr_batch`): the ``n`` counter blocks of every packet
are laid side by side, and byte ``i`` of all of them (row ``i % 4``,
column ``i // 4`` of the AES state) forms lane ``i``, one Python int
of ``n`` bytes.  SubBytes is one ``bytes.translate`` per lane,
ShiftRows renames lanes, and MixColumns and AddRoundKey are int XORs,
shifts and masks over whole lanes, so a round is about 170 interpreter
steps whatever the batch size, each running over ``n`` bytes in C.  The
module uses only the standard library: numpy would be faster per byte,
but importing it adds ~12 MB to the resident set of every process that
deploys a chain.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import struct
from typing import Dict, Hashable, List, Optional, Sequence

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

#: ShiftRows as a lane renaming: output lane ``r + 4c`` takes input lane
#: ``r + 4((c + r) % 4)``.
_SHIFT_ROWS = tuple(r + 4 * ((c + r) % 4) for c in range(4) for r in range(4))


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
    """AES-128 encryptor with a precomputed key schedule.

    :meth:`ctr_batch` is the one CTR implementation: byte-sliced over
    every counter block of a batch (see the module docstring for the
    lane layout).  :meth:`encrypt_block` is the FIPS-197 T-table
    reference, one block at a time, that the tests hold it to.

    Immutable once built: an IPsec element expands its key once, and
    clones of the element share the schedule.
    """

    def __init__(self, key: bytes):
        self._words = _expand_key_words(key)
        # Round-key byte 16 * round + i belongs to state lane i.
        self._key_bytes = b"".join(word.to_bytes(4, "big")
                                   for word in self._words)

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
        """AES-128-CTR of one packet: :meth:`ctr_batch` of a batch of one."""
        return self.ctr_batch([nonce], [data], initial_counter)[0]

    def ctr_batch(self, nonces: Sequence[bytes], datas: Sequence[bytes],
                  initial_counter: int = 1) -> List[bytes]:
        """AES-128-CTR per RFC 3686 over a batch, in one keystream pass.

        Returns ``datas[k]`` XOR the keystream of ``nonces[k]`` for
        every ``k``.  Counter block ``j`` of packet ``k`` is
        ``nonces[k]`` (12 bytes: nonce + IV in RFC terms) followed by
        the big-endian 32-bit counter ``initial_counter + j`` modulo
        2**32, and its keystream block is ``encrypt_block`` of that
        block.  CTR is an involution: applying it twice with the same
        parameters restores the plaintext.
        """
        if len(nonces) != len(datas):
            raise ValueError("ctr_batch needs one nonce per data")
        if any(len(nonce) != 12 for nonce in nonces):
            raise ValueError("CTR nonce must be 12 bytes (nonce + IV)")
        counts = [(len(data) + 15) // 16 for data in datas]
        n = sum(counts)
        if not n:
            return [b"" for _ in datas]
        from_bytes = int.from_bytes
        keys = self._key_bytes
        ones = from_bytes(b"\x01" * n, "little")
        low7 = 0x7F * ones
        # Lanes 0-11 are the nonce bytes, 12-15 the counter bytes, of
        # every counter block in packet order.
        longest = max(counts)
        counters = struct.pack(f">{longest}I", *[
            (initial_counter + j) & 0xFFFFFFFF for j in range(longest)])
        nonce_bytes = b"".join([nonce * count
                                for nonce, count in zip(nonces, counts)])
        counter_bytes = b"".join([counters[:4 * count] for count in counts])
        lanes = ([nonce_bytes[i::12] for i in range(12)]
                 + [counter_bytes[i::4] for i in range(4)])
        state = [from_bytes(lane, "little") ^ keys[i] * ones
                 for i, lane in enumerate(lanes)]
        for base in range(16, 160, 16):
            sub = [from_bytes(lane.to_bytes(n, "little").translate(_SBOX),
                              "little") for lane in state]
            state = []
            for column in range(0, 16, 4):
                a0, a1, a2, a3 = [sub[i]
                                  for i in _SHIFT_ROWS[column:column + 4]]
                total = a0 ^ a1 ^ a2 ^ a3
                # MixColumns as a_r ^ total ^ xtime(a_r ^ a_r+1), with
                # xtime over every byte of a lane at once.
                for row, (a, b) in enumerate(((a0, a1), (a1, a2),
                                              (a2, a3), (a3, a0))):
                    pair = a ^ b
                    state.append(a ^ total ^ ((pair & low7) << 1)
                                 ^ ((pair >> 7) & ones) * 0x1B
                                 ^ keys[base + column + row] * ones)
        # Final round: SubBytes + ShiftRows + AddRoundKey (no Mix).
        keystream = bytearray(16 * n)
        for i, source in enumerate(_SHIFT_ROWS):
            keystream[i::16] = (
                from_bytes(state[source].to_bytes(n, "little")
                           .translate(_SBOX), "little")
                ^ keys[160 + i] * ones).to_bytes(n, "little")
        out = []
        offset = 0
        for data, count in zip(datas, counts):
            width = len(data)
            out.append((from_bytes(data, "big") ^ from_bytes(
                keystream[offset:offset + width], "big")
            ).to_bytes(width, "big"))
            offset += 16 * count
        return out


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
    from the packet seqno; one keystream pass per batch) and appends a
    truncated HMAC-SHA1 tag.  ``spi`` is the 32-bit Security Parameters
    Index of RFC 4303.  The whole payload crosses PCIe in both
    directions, making this the transfer-heaviest offloadable element —
    the reason its optimal offload ratio is interior (~70 %, Fig. 6).
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
        if not 0 <= spi < 2**32:
            raise ValueError(f"ESP SPI must fit 32 bits, got {spi}")
        self.key = key
        self.auth_key = auth_key
        self.spi = spi
        self.cipher = AES128(key)

    def _nonce(self, seqno: int) -> bytes:
        return struct.pack("!IQ", self.spi, seqno & 0xFFFFFFFFFFFFFFFF)

    def process(self, batch: PacketBatch) -> Dict[int, PacketBatch]:
        packets = batch.live_packets
        ciphertexts = self.cipher.ctr_batch(
            [self._nonce(packet.seqno) for packet in packets],
            [packet.payload for packet in packets])
        for packet, ciphertext in zip(packets, ciphertexts):
            esp_header = struct.pack("!II", self.spi,
                                     packet.seqno & 0xFFFFFFFF)
            tag = hmac_sha1(self.auth_key, esp_header + ciphertext)
            packet.payload = esp_header + ciphertext + tag
            packet.annotations["esp"] = True
        return {0: batch}

    def signature(self) -> Hashable:
        return ("IPsecEncrypt", self.key, self.auth_key, self.spi)


class IPsecDecrypt(OffloadableElement):
    """Verify-then-decrypt counterpart of :class:`IPsecEncrypt`.

    Checks every packet's tag first, then decrypts the verified bodies
    in one keystream pass.
    """

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
        survivors, nonces, bodies = [], [], []
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
            nonces.append(struct.pack("!IQ", spi, packet.seqno
                                      & 0xFFFFFFFFFFFFFFFF))
            bodies.append(body)
            survivors.append(packet)
        for packet, plaintext in zip(survivors,
                                     self.cipher.ctr_batch(nonces, bodies)):
            packet.payload = plaintext
            packet.annotations.pop("esp", None)
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
