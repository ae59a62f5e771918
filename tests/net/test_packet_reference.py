"""The memoized parsers and the one-unpack checksum against their
frozen copies.

``tests/packet_reference.py`` keeps :func:`ipv4_to_int`,
:func:`mac_to_bytes` and :func:`internet_checksum` as they were before
the parsers remembered what they parsed and refused non-canonical
digit groups.  Valid text must give the same value, text they refused
the same exception type and message on every call (a cache must not
remember a failure or turn it into a value), and any data, odd-length
included, the same checksum.  Text they read although it is no
address (a sign, a space, an underscore, a base prefix, a non-ASCII
digit) now raises ``ValueError``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

import packet_reference as reference
from repro.net.packet import internet_checksum, ipv4_to_int, mac_to_bytes

MALFORMED_IPV4 = [
    "1.2.3",            # 3 parts
    "1.2.3.4.5",        # 5 parts
    "1.2.3.256",        # octet 256
    "256.0.0.1",
    "-1",
    "1.2.-1.4",         # octet -1
    "",                 # empty
    "1.2.3.",           # empty part
    "a.b.c.d",          # non-numeric
    "10.0.0.x",
]
MALFORMED_MAC = [
    "00:11:22:33:44",           # 5 parts
    "00:11:22:33:44:55:66",     # 7 parts
    "zz:11:22:33:44:55",        # a zz octet
    "00:11:22:33:44:zz",
    "100:11:22:33:44:55",       # octet 256
    "",
    "00-11-22-33-44-55",
]


#: Text ``int()`` reads as a number but that is no address: the frozen
#: parsers returned a value for each, the product raises.
NON_CANONICAL_IPV4 = [
    "1_0.0.0.1",        # underscore
    " 10.0.0.1",        # leading space
    "10.0.0.1\n",       # trailing newline
    "+10.0.0.1",        # sign
    "-0.0.0.1",         # minus zero
    "\u0661.0.0.1",     # an Arabic-Indic digit one
    "\uff10.0.0.1",     # a full-width digit zero
    "0010.0.0.1",       # four digits
]
NON_CANONICAL_MAC = [
    "0x0a:00:00:00:00:01",  # base prefix
    "0_a:00:00:00:00:01",   # underscore
    " a:00:00:00:00:01",    # leading space
    "+a:00:00:00:00:01",    # sign
    "-0:00:00:00:00:01",    # minus zero
    "00a:00:00:00:00:01",   # three digits
    "\uff10a:00:00:00:00:01",  # a full-width digit zero
]


def outcome(function, text):
    """``function(text)``'s value, or its exception's type and
    message."""
    try:
        return "value", function(text)
    except Exception as error:  # the type and message are compared
        return type(error), str(error)


@pytest.mark.parametrize("text", MALFORMED_IPV4)
def test_malformed_ipv4_raises_as_before(text):
    expected = outcome(reference.ipv4_to_int, text)
    assert expected[0] is ValueError
    for _ in range(3):
        assert outcome(ipv4_to_int, text) == expected


@pytest.mark.parametrize("text", MALFORMED_MAC)
def test_malformed_mac_raises_as_before(text):
    expected = outcome(reference.mac_to_bytes, text)
    assert expected[0] is ValueError
    for _ in range(3):
        assert outcome(mac_to_bytes, text) == expected


@pytest.mark.parametrize("text", NON_CANONICAL_IPV4)
def test_non_canonical_ipv4_rejected(text):
    assert outcome(reference.ipv4_to_int, text)[0] == "value"
    for _ in range(3):
        assert outcome(ipv4_to_int, text) == \
            (ValueError, f"malformed IPv4 address: {text!r}")


@pytest.mark.parametrize("text", NON_CANONICAL_MAC)
def test_non_canonical_mac_rejected(text):
    assert outcome(reference.mac_to_bytes, text)[0] == "value"
    for _ in range(3):
        assert outcome(mac_to_bytes, text) == \
            (ValueError, f"malformed MAC address: {text!r}")


def test_canonical_spellings_parse():
    assert ipv4_to_int("0.0.0.0") == 0
    assert ipv4_to_int("255.255.255.255") == 0xFFFFFFFF
    assert ipv4_to_int("010.001.0.9") == 0x0A010009
    assert mac_to_bytes("a:B:0:ff:0F:1") == bytes([10, 11, 0, 255, 15, 1])


def test_random_addresses_parse_as_before():
    rng = random.Random(36)
    addresses = ["%d.%d.%d.%d" % tuple(rng.randrange(256) for _ in range(4))
                 for _ in range(2000)]
    macs = [":".join("%02x" % rng.randrange(256) for _ in range(6))
            for _ in range(600)]
    # Each list twice: the second pass reads what the first cached,
    # and both lists are longer than the caches, so some entries are
    # evicted and parsed again.
    for text in addresses + addresses:
        assert ipv4_to_int(text) == reference.ipv4_to_int(text)
    for text in macs + macs:
        assert mac_to_bytes(text) == reference.mac_to_bytes(text)


def test_a_failure_between_hits_does_not_stick():
    assert ipv4_to_int("10.0.0.1") == 0x0A000001
    with pytest.raises(ValueError, match="malformed IPv4"):
        ipv4_to_int("10.0.0.256")
    assert ipv4_to_int("10.0.0.1") == 0x0A000001


@given(data=st.binary(max_size=101))
@settings(max_examples=200, deadline=None)
def test_checksum_as_before(data):
    assert internet_checksum(data) == reference.internet_checksum(data)


@pytest.mark.parametrize("size", [0, 1, 19, 20, 21, 1499])
def test_checksum_of_every_length_as_before(size):
    data = bytes(random.Random(size).randrange(256) for _ in range(size))
    assert internet_checksum(data) == reference.internet_checksum(data)
    assert internet_checksum(b"\xff" * size) == \
        reference.internet_checksum(b"\xff" * size)
