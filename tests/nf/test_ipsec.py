"""Unit and property tests for the IPsec gateway and its crypto."""

import hashlib
import hmac as stdlib_hmac
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import repro
from repro.elements.config import parse_config
from repro.net.batch import PacketBatch
from repro.net.packet import Packet
from repro.nf.ipsec import (
    AES128,
    ESP_OVERHEAD_BYTES,
    IPsecDecrypt,
    IPsecEncrypt,
    IPsecGateway,
    aes128_ctr,
    hmac_sha1,
)
from repro.runner import canonical_fingerprint

#: ``canonical_fingerprint`` of the ESP payloads ``IPsecGateway`` makes
#: of :func:`_fixed_esp_batch`, recorded while CTR still ran one block
#: at a time: batch-wide CTR must not move a ciphertext byte.
ESP_PAYLOADS = \
    "016903dfe2daf8e8d9de5a958c70bf0d38e870b30fdeeee904443ea739563dda"


class TestAES128:
    def test_fips197_appendix_c_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_fips197_appendix_b_vector(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES128(key).encrypt_block(plaintext) == expected

    def test_wrong_key_length_rejected(self):
        with pytest.raises(ValueError):
            AES128(b"short")

    def test_wrong_block_length_rejected(self):
        with pytest.raises(ValueError):
            AES128(b"0" * 16).encrypt_block(b"x" * 15)


class TestCTRMode:
    def test_rfc3686_vector_1(self):
        key = bytes.fromhex("AE6852F8121067CC4BF7A5765577F39E")
        nonce = bytes.fromhex("00000030") + bytes(8)
        plaintext = b"Single block msg"
        expected = bytes.fromhex("E4095D4FB7A7B3792D6175A3261311B8")
        assert aes128_ctr(key, nonce, plaintext, initial_counter=1) == expected

    def test_rfc3686_vector_2(self):
        key = bytes.fromhex("7E24067817FAE0D743D6CE1F32539163")
        nonce = bytes.fromhex("006CB6DB") + bytes.fromhex("C0543B59DA48D90B")
        plaintext = bytes.fromhex(
            "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F"
        )
        expected = bytes.fromhex(
            "5104A106168A72D9790D41EE8EDAD388EB2E1EFC46DA57C8FCE630DF9141BE28"
        )
        assert aes128_ctr(key, nonce, plaintext, initial_counter=1) == expected

    def test_ctr_is_involution(self):
        key = b"0123456789abcdef"
        nonce = b"nonce1234567"
        data = b"the quick brown fox jumps over the lazy dog"
        once = aes128_ctr(key, nonce, data)
        twice = aes128_ctr(key, nonce, once)
        assert twice == data

    def test_nonce_length_enforced(self):
        with pytest.raises(ValueError):
            aes128_ctr(b"0" * 16, b"short", b"data")


def _ctr_by_blocks(cipher, nonce, data, initial_counter):
    """CTR built from the reference ``encrypt_block``, one block at a time."""
    out = bytearray()
    for index in range(0, len(data), 16):
        counter = (initial_counter + index // 16) & 0xFFFFFFFF
        keystream = cipher.encrypt_block(nonce + counter.to_bytes(4, "big"))
        out += bytes(a ^ b for a, b in zip(data[index:index + 16], keystream))
    return bytes(out)


class TestCTRKeystream:
    """``AES128.ctr`` is byte-sliced ``ctr_batch`` of one packet;
    ``encrypt_block`` is the reference it must agree with."""

    cipher = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    nonce = bytes(range(12))

    @pytest.mark.parametrize("initial_counter", [0, 1, 7])
    def test_matches_block_by_block_for_lengths_0_to_100(
            self, initial_counter):
        data = bytes((31 * i + 7) & 0xFF for i in range(100))
        for length in range(101):
            assert self.cipher.ctr(self.nonce, data[:length],
                                   initial_counter) == _ctr_by_blocks(
                self.cipher, self.nonce, data[:length], initial_counter)

    def test_counter_wraps_at_2_pow_32(self):
        data = bytes(range(80))  # five blocks: counters 2**32-1, 0, 1, ...
        wrapped = self.cipher.ctr(self.nonce, data, 2**32 - 1)
        assert wrapped == _ctr_by_blocks(self.cipher, self.nonce, data,
                                         2**32 - 1)
        # Block 2 onward uses counters 0, 1, ... again.
        assert wrapped[16:] == self.cipher.ctr(self.nonce, data[16:], 0)

    def test_one_shot_function_delegates(self):
        key = b"0123456789abcdef"
        data = b"x" * 45
        assert aes128_ctr(key, self.nonce, data, 3) == \
            AES128(key).ctr(self.nonce, data, 3)

    def test_nonce_length_enforced(self):
        with pytest.raises(ValueError):
            self.cipher.ctr(b"short", b"data")

    def test_elements_expand_the_key_once(self, monkeypatch):
        import repro.nf.ipsec as ipsec
        encrypt, decrypt = IPsecEncrypt(), IPsecDecrypt()
        expansions = []
        original = ipsec._expand_key_words
        monkeypatch.setattr(ipsec, "_expand_key_words",
                            lambda key: expansions.append(key)
                            or original(key))
        packets = [Packet(payload=bytes(40), seqno=i) for i in range(8)]
        encrypt.push(PacketBatch(packets))
        decrypt.push(PacketBatch(packets))
        assert expansions == []
        assert all(p.payload == bytes(40) for p in packets)


def _batch_by_blocks(cipher, nonces, datas, initial_counter):
    return [_ctr_by_blocks(cipher, nonce, data, initial_counter)
            for nonce, data in zip(nonces, datas)]


class TestCTRBatch:
    """``ctr_batch`` against ``_ctr_by_blocks``, packet by packet."""

    cipher = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))

    @staticmethod
    def nonces(count):
        return [bytes((5 * k + j) & 0xFF for j in range(12))
                for k in range(count)]

    def assert_matches_reference(self, nonces, datas, initial_counter=1):
        assert self.cipher.ctr_batch(nonces, datas, initial_counter) == \
            _batch_by_blocks(self.cipher, nonces, datas, initial_counter)

    def test_empty_batch(self):
        assert self.cipher.ctr_batch([], []) == []

    def test_all_empty_payloads(self):
        assert self.cipher.ctr_batch(self.nonces(3), [b""] * 3) == [b""] * 3

    # 2**32 - 1 wraps the counter inside every multi-block packet.
    @pytest.mark.parametrize("initial_counter", [0, 1, 2**32 - 1])
    def test_mixed_lengths(self, initial_counter):
        lengths = [0, 1, 15, 16, 17, 100, 1500, 0, 17]
        datas = [bytes((13 * k + i) & 0xFF for i in range(length))
                 for k, length in enumerate(lengths)]
        self.assert_matches_reference(self.nonces(len(datas)), datas,
                                      initial_counter)

    def test_duplicate_nonces(self):
        nonce = self.nonces(1)[0]
        datas = [b"a" * 40, b"b" * 17, b"a" * 40]
        self.assert_matches_reference([nonce] * 3, datas)
        out = self.cipher.ctr_batch([nonce] * 3, datas)
        assert out[0] == out[2]

    def test_short_or_long_nonce_rejected(self):
        for bad in (b"short", bytes(13)):
            with pytest.raises(ValueError):
                self.cipher.ctr_batch(self.nonces(2) + [bad],
                                      [b"x", b"", b""])
        with pytest.raises(ValueError):
            self.cipher.ctr_batch([b"short"], [b""])

    def test_one_nonce_per_data(self):
        with pytest.raises(ValueError):
            self.cipher.ctr_batch(self.nonces(2), [b"x"])


@pytest.mark.property
@given(key=st.binary(min_size=16, max_size=16),
       packets=st.lists(st.tuples(st.binary(min_size=12, max_size=12),
                                  st.binary(max_size=80)), max_size=12),
       initial_counter=st.one_of(st.integers(0, 2**32 - 1),
                                 st.integers(2**32 - 6, 2**32 - 1)))
@settings(max_examples=150, deadline=None)
def test_ctr_batch_matches_block_reference(key, packets, initial_counter):
    cipher = AES128(key)
    nonces = [nonce for nonce, _ in packets]
    datas = [data for _, data in packets]
    assert cipher.ctr_batch(nonces, datas, initial_counter) == \
        _batch_by_blocks(cipher, nonces, datas, initial_counter)


@given(st.binary(min_size=16, max_size=16), st.binary(max_size=300))
@settings(max_examples=60)
def test_ctr_roundtrip_property(key, data):
    nonce = b"A" * 12
    assert aes128_ctr(key, nonce, aes128_ctr(key, nonce, data)) == data


@given(st.binary(min_size=1, max_size=64), st.binary(max_size=128))
def test_hmac_sha1_matches_stdlib(key, data):
    expected = stdlib_hmac.new(key, data, hashlib.sha1).digest()[:12]
    assert hmac_sha1(key, data) == expected


class TestIPsecElements:
    def test_encrypt_adds_esp_overhead(self):
        packet = Packet(payload=b"secret data here")
        IPsecEncrypt().push(PacketBatch([packet]))
        assert len(packet.payload) == 16 + ESP_OVERHEAD_BYTES
        assert packet.annotations.get("esp")

    def test_encrypt_hides_plaintext(self):
        packet = Packet(payload=b"very secret payload")
        IPsecEncrypt().push(PacketBatch([packet]))
        assert b"very secret" not in packet.payload

    def test_encrypt_decrypt_roundtrip(self):
        payload = b"roundtrip payload 1234"
        packet = Packet(payload=payload)
        IPsecEncrypt().push(PacketBatch([packet]))
        IPsecDecrypt().push(PacketBatch([packet]))
        assert packet.payload == payload
        assert not packet.dropped

    def test_decrypt_rejects_tampered_payload(self):
        packet = Packet(payload=b"do not tamper with me")
        IPsecEncrypt().push(PacketBatch([packet]))
        tampered = bytearray(packet.payload)
        tampered[10] ^= 0xFF
        packet.payload = bytes(tampered)
        decrypt = IPsecDecrypt()
        out = decrypt.push(PacketBatch([packet]))
        assert packet.dropped
        assert decrypt.auth_failures == 1
        assert len(out[0].live_packets) == 0

    def test_decrypt_rejects_short_payload(self):
        packet = Packet(payload=b"tiny")
        decrypt = IPsecDecrypt()
        decrypt.push(PacketBatch([packet]))
        assert packet.dropped

    def test_different_seqnos_different_ciphertexts(self):
        a = Packet(payload=b"same plaintext", seqno=1)
        b = Packet(payload=b"same plaintext", seqno=2)
        IPsecEncrypt().push(PacketBatch([a, b]))
        assert a.payload != b.payload

    def test_signature_keyed_by_keys(self):
        assert IPsecEncrypt().signature() == IPsecEncrypt().signature()
        assert IPsecEncrypt(spi=1).signature() != \
            IPsecEncrypt(spi=2).signature()

    @pytest.mark.parametrize("spi", [-1, 2**32, 2**32 + 5])
    def test_spi_outside_32_bits_rejected(self, spi):
        with pytest.raises(ValueError):
            IPsecEncrypt(spi=spi)

    def test_spi_outside_32_bits_rejected_in_click_config(self):
        with pytest.raises(ValueError):
            parse_config("enc :: IPsecEncrypt(spi=-1);")

    def test_spi_bounds_accepted(self):
        for spi in (0, 2**32 - 1):
            packet = Packet(payload=b"edge spi")
            IPsecEncrypt(spi=spi).push(PacketBatch([packet]))
            assert packet.payload[:4] == spi.to_bytes(4, "big")

    def test_batch_equals_one_packet_per_batch(self):
        lengths = (0, 1, 15, 16, 17, 100, 202, 1500)
        packets, alone = [], []
        for index in range(64):
            payload = bytes((11 * index + i) & 0xFF
                            for i in range(lengths[index % 8]))
            packets.append(Packet(payload=payload, seqno=3 * index))
            alone.append(Packet(payload=payload, seqno=3 * index))
        dropped = {index for index in range(64) if index % 7 == 2}
        for index in dropped:
            packets[index].mark_dropped("upstream")
        originals = [packet.payload for packet in packets]
        encrypt = IPsecEncrypt()
        encrypt.push(PacketBatch(packets))
        for index, (packet, single) in enumerate(zip(packets, alone)):
            if index in dropped:
                assert packet.payload == originals[index]
                assert "esp" not in packet.annotations
            else:
                encrypt.push(PacketBatch([single]))
                assert packet.payload == single.payload

    def test_tunnel_drops_exactly_tampered_and_short(self):
        packets = [Packet(payload=bytes([index]) * (5 * index), seqno=index)
                   for index in range(12)]
        originals = [packet.payload for packet in packets]
        IPsecEncrypt().push(PacketBatch(packets))
        tampered = bytearray(packets[4].payload)
        tampered[9] ^= 0x01
        packets[4].payload = bytes(tampered)
        packets[7].payload = packets[7].payload[:ESP_OVERHEAD_BYTES - 1]
        decrypt = IPsecDecrypt()
        out = decrypt.push(PacketBatch(packets))[0]
        assert decrypt.auth_failures == 2
        assert [p.dropped for p in packets] == \
            [index in (4, 7) for index in range(12)]
        assert out.packets == [p for p in packets if not p.dropped]
        assert [p.payload for p in out.packets] == \
            [originals[index] for index in range(12) if index not in (4, 7)]
        assert not any(p.annotations.get("esp") for p in out.packets)


class TestIPsecGatewayNF:
    def test_encrypts_all_packets(self, generator):
        gateway = IPsecGateway()
        out = gateway.process_packets(generator.packets(16))
        assert len(out) == 16
        assert all(p.annotations.get("esp") for p in out)

    def test_gateway_then_decrypt_restores_payloads(self, generator):
        gateway = IPsecGateway()
        packets = list(generator.packets(8))
        originals = [p.payload for p in packets]
        encrypted = gateway.process_packets(packets)
        decrypt = IPsecDecrypt()
        restored = decrypt.push(PacketBatch(encrypted))[0]
        assert [p.payload for p in restored] == originals

    def test_esp_payloads_are_pinned(self):
        packets = _fixed_esp_batch()
        IPsecGateway().process_packets(packets)
        assert sum(p.dropped for p in packets) == 13
        assert canonical_fingerprint(
            [(p.dropped, p.payload) for p in packets]) == ESP_PAYLOADS


def _fixed_esp_batch():
    """64 packets of mixed lengths whose seqnos cross 2**32; every
    fifth from the fourth has TTL 0, so ``CheckIPHeader`` drops it."""
    lengths = (0, 1, 15, 16, 17, 100, 202, 1500)
    packets = []
    for index in range(64):
        length = lengths[index % len(lengths)]
        packet = Packet(
            payload=bytes((31 * index + 7 * j) & 0xFF for j in range(length)),
            seqno=2**32 - 20 + index)
        if index % 5 == 3:
            packet.ip.ttl = 0
        packets.append(packet)
    return packets


def test_deploy_leaves_numpy_unimported():
    """The packet path is stdlib only (see ``repro.nf.ipsec``): numpy
    would add ~12 MB to the resident set of every deploying process."""
    script = (
        "import sys, repro\n"
        "from repro.core.compass import NFCompass\n"
        "from repro.nf.base import ServiceFunctionChain\n"
        "from repro.nf.catalog import make_nf\n"
        "from repro.traffic.generator import TrafficSpec\n"
        "sfc = ServiceFunctionChain([make_nf(k) for k in "
        "('firewall', 'ipsec', 'dpi')])\n"
        "NFCompass().run(sfc, TrafficSpec(seed=1), batch_size=16, "
        "batch_count=10)\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
