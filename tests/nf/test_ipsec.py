"""Unit and property tests for the IPsec gateway and its crypto."""

import hashlib
import hmac as stdlib_hmac

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

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
    """``AES128.ctr`` inlines the rounds; ``encrypt_block`` is the
    reference it must agree with."""

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
