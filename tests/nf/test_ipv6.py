"""Unit and property tests for the IPv6 forwarder."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.net.batch import PacketBatch
from repro.net.packet import ETHERTYPE_IPV6, EthernetHeader, IPv6Header, \
    Packet, UDPHeader
from repro.nf.ipv6 import HashedPrefixTable, IPv6Forwarder, IPv6Lookup


class TestHashedPrefixTable:
    def test_empty_table_misses(self):
        assert HashedPrefixTable().lookup(12345) is None

    def test_default_route(self):
        table = HashedPrefixTable()
        table.insert(0, 0, 3)
        assert table.lookup(98765) == 3

    def test_longest_prefix_wins(self):
        table = HashedPrefixTable()
        base = 0x20010DB8 << 96
        table.insert(0x2001, 16, 1)
        table.insert(0x20010DB8, 32, 2)
        address = base | 0x1234
        assert table.lookup(address) == 2

    def test_markers_enable_binary_search(self):
        """A long prefix must be findable even when intermediate
        lengths have no real entries (requires markers)."""
        table = HashedPrefixTable()
        table.insert(0, 0, 0)
        table.insert(0x2001, 16, 1)
        table.insert((0x20010DB8 << 96) | 42, 128, 9)
        assert table.lookup((0x20010DB8 << 96) | 42) == 9
        # A neighbour address at the same /32 falls back to /16.
        assert table.lookup((0x20010DB8 << 96) | 43) == 1

    def test_probe_count_is_logarithmic(self):
        table = HashedPrefixTable.random_table(prefix_count=200, seed=2)
        _hop, probes = table.lookup_with_probes(0x2001 << 112)
        # Binary search over <= 9 distinct lengths -> <= 4-5 probes.
        assert probes <= 5

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            HashedPrefixTable().insert(0, 129, 1)

    @pytest.mark.parametrize("prefix,length", [
        (1 << 70, 64), (1 << 64, 64), (-1, 64), (1, 0), (1 << 128, 128)])
    def test_prefix_outside_its_length_rejected(self, prefix, length):
        table = HashedPrefixTable()
        with pytest.raises(ValueError, match="outside"):
            table.insert(prefix, length, 7)
        assert table.prefix_count == 0

    def test_prefix_at_its_width_accepted(self):
        table = HashedPrefixTable()
        table.insert((1 << 64) - 1, 64, 7)
        assert table.lookup(((1 << 64) - 1) << 64) == 7

    @pytest.mark.parametrize("prefix_count", [0, -5])
    def test_random_table_without_prefixes_rejected(self, prefix_count):
        with pytest.raises(ValueError, match="prefix_count must be at least"):
            HashedPrefixTable.random_table(prefix_count=prefix_count)

    def test_random_table_reproducible(self):
        a = HashedPrefixTable.random_table(prefix_count=80, seed=4)
        b = HashedPrefixTable.random_table(prefix_count=80, seed=4)
        probe = 0xFEDCBA01 << 96
        assert a.lookup(probe) == b.lookup(probe)


def _brute_force_v6(entries, address):
    best, best_len = None, -1
    for prefix, length, hop in entries:
        if length == 0 or (address >> (128 - length)) == prefix:
            if length > best_len:
                best, best_len = hop, length
    return best


@given(
    entries=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 128) - 1),
            st.sampled_from([0, 16, 32, 48, 64, 96, 128]),
            st.integers(min_value=0, max_value=63),
        ),
        min_size=0, max_size=25,
    ),
    address=st.integers(min_value=0, max_value=(1 << 128) - 1),
)
@settings(max_examples=120)
def test_hashed_lpm_matches_brute_force(entries, address):
    table = HashedPrefixTable()
    seen = {}
    for prefix, length, hop in entries:
        truncated = prefix >> (128 - length) if length else 0
        table.insert(truncated, length, hop)
        seen[(truncated, length)] = hop
    canonical = [(p, l, h) for (p, l), h in seen.items()]
    assert table.lookup(address) == _brute_force_v6(canonical, address)


class TestIPv6ForwarderNF:
    def _packet(self, dst):
        return Packet(
            eth=EthernetHeader(ethertype=ETHERTYPE_IPV6),
            ip=IPv6Header(dst=dst),
            l4=UDPHeader(),
        )

    def test_forwards_with_default_route(self):
        forwarder = IPv6Forwarder()
        out = forwarder.process_packets(
            [self._packet((0xABCD << 112) | i) for i in range(8)]
        )
        assert len(out) == 8
        assert all("next_hop" in p.annotations for p in out)

    def test_hop_limit_decremented(self):
        forwarder = IPv6Forwarder()
        packet = self._packet(1 << 120)
        packet.ip.hop_limit = 9
        out = forwarder.process_packets([packet])
        assert out[0].ip.hop_limit == 8

    def test_no_route_drops(self):
        element = IPv6Lookup(HashedPrefixTable())
        packet = self._packet(5)
        element.push(PacketBatch([packet]))
        assert packet.dropped
