"""Unit and property tests for the IPv4 forwarder."""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.net.batch import PacketBatch
from repro.net.packet import IPv4Header, Packet, ipv4_to_int
from repro.nf.ipv4 import IPv4Forwarder, IPv4Lookup, LPMTrie


class TestLPMTrie:
    def test_empty_trie_misses(self):
        assert LPMTrie().lookup(ipv4_to_int("1.2.3.4")) is None

    def test_default_route(self):
        trie = LPMTrie()
        trie.insert(0, 0, 99)
        assert trie.lookup(ipv4_to_int("8.8.8.8")) == 99

    def test_longest_prefix_wins(self):
        trie = LPMTrie()
        trie.insert(ipv4_to_int("10.0.0.0"), 8, 1)
        trie.insert(ipv4_to_int("10.1.0.0"), 16, 2)
        trie.insert(ipv4_to_int("10.1.2.0"), 24, 3)
        assert trie.lookup(ipv4_to_int("10.9.9.9")) == 1
        assert trie.lookup(ipv4_to_int("10.1.9.9")) == 2
        assert trie.lookup(ipv4_to_int("10.1.2.9")) == 3

    def test_exact_host_route(self):
        trie = LPMTrie()
        trie.insert(ipv4_to_int("1.1.1.1"), 32, 7)
        assert trie.lookup(ipv4_to_int("1.1.1.1")) == 7
        assert trie.lookup(ipv4_to_int("1.1.1.2")) is None

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            LPMTrie().insert(0, 33, 1)

    def test_reinsert_updates_next_hop_without_count(self):
        trie = LPMTrie()
        trie.insert(ipv4_to_int("10.0.0.0"), 8, 1)
        trie.insert(ipv4_to_int("10.0.0.0"), 8, 2)
        assert trie.prefix_count == 1
        assert trie.lookup(ipv4_to_int("10.5.5.5")) == 2

    def test_host_bits_ignored(self):
        trie = LPMTrie()
        trie.insert(ipv4_to_int("10.1.2.3"), 16, 4)
        trie.insert(ipv4_to_int("10.1.9.9"), 16, 5)
        assert trie.prefix_count == 1
        assert trie.lookup(ipv4_to_int("10.1.255.255")) == 5
        assert trie.lookup(ipv4_to_int("10.2.0.0")) is None

    @pytest.mark.parametrize("prefix", [-1, 1 << 32, 1 << 40])
    def test_prefix_outside_32_bits_rejected(self, prefix):
        trie = LPMTrie()
        with pytest.raises(ValueError, match="outside"):
            trie.insert(prefix, 8, 5)
        assert trie.prefix_count == 0
        assert trie.lookup(ipv4_to_int("255.0.0.1")) is None

    @pytest.mark.parametrize("next_hop", [None, 1.0, "3"])
    def test_non_int_next_hop_rejected(self, next_hop):
        trie = LPMTrie()
        trie.insert(ipv4_to_int("10.0.0.0"), 8, 1)
        with pytest.raises(TypeError, match="next hop must be an int"):
            trie.insert(ipv4_to_int("10.0.0.0"), 8, next_hop)
        assert trie.prefix_count == 1
        assert trie.lookup(ipv4_to_int("10.5.5.5")) == 1

    @pytest.mark.parametrize("address", [-1, 1 << 32, (1 << 40) | 1])
    def test_address_outside_32_bits_rejected(self, address):
        trie = LPMTrie()
        trie.insert(0, 0, 1)
        with pytest.raises(ValueError, match="outside"):
            trie.lookup(address)

    @pytest.mark.parametrize("prefix_count", [0, -5])
    def test_random_table_without_prefixes_rejected(self, prefix_count):
        with pytest.raises(ValueError, match="prefix_count must be at least"):
            LPMTrie.random_table(prefix_count=prefix_count)

    def test_random_table_adds_no_collector_objects(self):
        """The routes are ints in per-length dicts, which the cyclic
        collector does not track: building the default FIB adds a
        handful of tracked objects, not one per trie node."""
        gc.collect()
        before = len(gc.get_objects())
        table = LPMTrie.random_table()
        gc.collect()
        added = len(gc.get_objects()) - before
        assert added < 100
        assert table.prefix_count == 1024

    def test_random_table_reproducible(self):
        a = LPMTrie.random_table(prefix_count=100, seed=1)
        b = LPMTrie.random_table(prefix_count=100, seed=1)
        address = ipv4_to_int("123.45.67.89")
        assert a.lookup(address) == b.lookup(address)
        assert a.prefix_count == 100

    def test_random_table_has_default(self):
        trie = LPMTrie.random_table(prefix_count=50)
        assert trie.lookup(ipv4_to_int("203.0.113.99")) is not None


def _brute_force_lookup(prefixes, address):
    """Reference LPM: scan all prefixes, take the longest match."""
    best = None
    best_len = -1
    for prefix, length, hop in prefixes:
        if length == 0 or (address >> (32 - length)) == (prefix >> (32 - length)):
            if length > best_len:
                best_len = length
                best = hop
    return best


@given(
    prefixes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            st.integers(min_value=0, max_value=32),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=0, max_size=40,
    ),
    address=st.integers(min_value=0, max_value=0xFFFFFFFF),
)
@settings(max_examples=150)
def test_lpm_matches_brute_force(prefixes, address):
    trie = LPMTrie()
    canonical = []
    seen = {}
    for prefix, length, hop in prefixes:
        masked = prefix & (~((1 << (32 - length)) - 1) & 0xFFFFFFFF) \
            if length < 32 else prefix
        trie.insert(masked, length, hop)
        seen[(masked, length)] = hop  # later insert wins, as in the trie
    canonical = [(p, l, h) for (p, l), h in seen.items()]
    assert trie.lookup(address) == _brute_force_lookup(canonical, address)


class TestIPv4Lookup:
    def test_annotates_next_hop_and_rewrites_mac(self):
        trie = LPMTrie()
        trie.insert(0, 0, 5)
        element = IPv4Lookup(trie)
        packet = Packet(ip=IPv4Header(dst="9.9.9.9"))
        element.push(PacketBatch([packet]))
        assert packet.annotations["next_hop"] == 5
        assert packet.eth.dst_mac.endswith(":05")

    def test_no_route_drops(self):
        element = IPv4Lookup(LPMTrie())
        packet = Packet(ip=IPv4Header(dst="9.9.9.9"))
        out = element.push(PacketBatch([packet]))
        assert packet.dropped
        assert len(out[0].live_packets) == 0

    def test_signature_keyed_by_table_id(self):
        trie = LPMTrie()
        assert IPv4Lookup(trie, table_id="t").signature() == \
            IPv4Lookup(trie, table_id="t").signature()

    def test_cost_hints_expose_table_size(self):
        trie = LPMTrie.random_table(prefix_count=64)
        assert IPv4Lookup(trie).cost_hints()["table_prefixes"] == 64.0


class TestIPv4ForwarderNF:
    def test_forwards_all_routable_packets(self, generator):
        forwarder = IPv4Forwarder()
        packets = list(generator.packets(32))
        out = forwarder.process_packets(packets)
        assert len(out) == 32
        assert all("next_hop" in p.annotations for p in out)

    def test_ttl_decremented(self, generator):
        forwarder = IPv4Forwarder()
        packet = next(generator.packets(1))
        original_ttl = packet.ip.ttl
        out = forwarder.process_packets([packet])
        assert out[0].ip.ttl == original_ttl - 1
