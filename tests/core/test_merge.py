"""Unit and property tests for the XOR/OR parallel-branch merge."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest
from builders import counted_serializations

from repro.core.merge import (
    MergeConflictError,
    OriginalSnapshot,
    XorMerge,
    xor_merge_packets,
)
from repro.net.batch import PacketBatch
from repro.net.packet import Packet


def snap(packet):
    packet.annotations["orig_bytes"] = packet.to_bytes()
    return packet


class TestXorMergePackets:
    def test_identity_when_no_branch_writes(self):
        packet = Packet(payload=b"untouched")
        original = packet.to_bytes()
        merged = xor_merge_packets(original, [packet.clone(),
                                              packet.clone()])
        assert merged.to_bytes() == original

    def test_single_writer_propagates(self):
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        writer = packet.clone()
        writer.payload = b"ABCdef"
        merged = xor_merge_packets(original, [packet.clone(), writer])
        assert merged.payload == b"ABCdef"

    def test_disjoint_writers_combine(self):
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        head_writer = packet.clone()
        head_writer.payload = b"ABcdef"
        tail_writer = packet.clone()
        tail_writer.payload = b"abcdEF"
        merged = xor_merge_packets(original,
                                   [head_writer, tail_writer])
        assert merged.payload == b"ABcdEF"

    def test_header_and_payload_writers_combine(self):
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        header_writer = packet.clone()
        header_writer.ip.ttl = 7
        payload_writer = packet.clone()
        payload_writer.payload = b"ABCDEF"
        merged = xor_merge_packets(original,
                                   [header_writer, payload_writer])
        assert merged.ip.ttl == 7
        assert merged.payload == b"ABCDEF"

    def test_identical_outputs_merge_trivially(self):
        packet = Packet(payload=b"plain")
        original = packet.to_bytes()
        a = packet.clone()
        a.payload = b"cipher-text-longer-than-before"
        b = packet.clone()
        b.payload = b"cipher-text-longer-than-before"
        merged = xor_merge_packets(original, [a, b])
        assert merged.payload == b"cipher-text-longer-than-before"

    def test_single_resizer_tolerated(self):
        packet = Packet(payload=b"short")
        original = packet.to_bytes()
        resizer = packet.clone()
        resizer.payload = b"a much longer payload now"
        reader = packet.clone()
        merged = xor_merge_packets(original, [reader, resizer])
        assert merged.payload == b"a much longer payload now"

    def test_two_conflicting_resizers_rejected(self):
        packet = Packet(payload=b"short")
        original = packet.to_bytes()
        a = packet.clone()
        a.payload = b"longer one A"
        b = packet.clone()
        b.payload = b"much longer other B"
        with pytest.raises(MergeConflictError):
            xor_merge_packets(original, [a, b])

    def test_resizer_plus_writer_rejected(self):
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        resizer = packet.clone()
        resizer.payload = b"different length"
        writer = packet.clone()
        writer.payload = b"ABCdef"
        with pytest.raises(MergeConflictError):
            xor_merge_packets(original, [resizer, writer])

    def test_annotations_unioned(self):
        packet = Packet(payload=b"x")
        original = packet.to_bytes()
        a = packet.clone()
        a.annotations["from_a"] = 1
        b = packet.clone()
        b.annotations["from_b"] = 2
        merged = xor_merge_packets(original, [a, b])
        assert merged.annotations["from_a"] == 1
        assert merged.annotations["from_b"] == 2

    def test_no_outputs_rejected(self):
        with pytest.raises(ValueError):
            xor_merge_packets(b"", [])


@given(
    payload=st.binary(min_size=4, max_size=64),
    cut=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=80)
def test_disjoint_region_merge_equals_sequential(payload, cut):
    """For writers touching disjoint byte ranges, the parallel merge
    equals applying both writes sequentially (the Table III guarantee)."""
    cut = min(cut, len(payload) - 1)
    packet = Packet(payload=payload)
    original = packet.to_bytes()
    first = packet.clone()
    first.payload = bytes(len(payload[:cut])) + payload[cut:]
    second = packet.clone()
    second.payload = payload[:cut] + b"\xff" * len(payload[cut:])
    merged = xor_merge_packets(original, [first, second])
    expected = bytes(cut) + b"\xff" * (len(payload) - cut)
    assert merged.payload == expected


class TestMergeConflictReporting:
    """The sound merge: overlapping non-identical deltas raise a
    structured MergeConflictError instead of silently OR-composing."""

    def test_overlapping_nonidentical_writes_raise(self):
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        a = packet.clone()
        a.payload = b"Xbcdef"
        b = packet.clone()
        b.payload = b"Ybcdef"
        with pytest.raises(MergeConflictError):
            xor_merge_packets(original, [a, b])

    def test_conflict_offsets_are_exact(self):
        """The reported offsets are precisely the conflicting byte
        positions in the wire representation."""
        payload = b"abcdef"
        packet = Packet(payload=payload)
        original = packet.to_bytes()
        payload_offset = len(original) - len(payload)
        a = packet.clone()
        a.payload = b"XYcdeZ"  # writes offsets 0, 1, 5
        b = packet.clone()
        b.payload = b"PQcdef"  # writes offsets 0, 1 with other values
        with pytest.raises(MergeConflictError) as excinfo:
            xor_merge_packets(original, [a, b])
        err = excinfo.value
        assert err.offsets == (payload_offset, payload_offset + 1)
        assert err.uid == packet.uid

    def test_conflict_names_branches(self):
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        a = packet.clone()
        a.annotations["tee_branch"] = 0
        a.payload = b"Xbcdef"
        b = packet.clone()
        b.annotations["tee_branch"] = 1
        b.payload = b"Ybcdef"
        with pytest.raises(MergeConflictError) as excinfo:
            xor_merge_packets(original, [a, b],
                              branch_names=["natA", "proxyB"])
        assert excinfo.value.branches == ("natA", "proxyB")
        assert "natA" in str(excinfo.value)

    def test_conflict_falls_back_to_positional_labels(self):
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        a = packet.clone()
        a.payload = b"Xbcdef"
        b = packet.clone()
        b.payload = b"Ybcdef"
        with pytest.raises(MergeConflictError) as excinfo:
            xor_merge_packets(original, [a, b])
        assert excinfo.value.branches == ("branch0", "branch1")

    def test_identical_overlapping_writes_still_merge(self):
        """Two branches writing the SAME value to the same offset make
        identical deltas, which OR-compose losslessly — fast path."""
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        a = packet.clone()
        a.payload = b"Xbcdef"
        b = packet.clone()
        b.payload = b"Xbcdef"
        merged = xor_merge_packets(original, [a, b])
        assert merged.payload == b"Xbcdef"

    def test_partial_overlap_with_identical_bytes_merges(self):
        """Deltas may overlap where the written values agree and still
        differ elsewhere disjointly."""
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        a = packet.clone()
        a.payload = b"XYcdef"  # offsets 0,1
        b = packet.clone()
        b.payload = b"XbcdeZ"  # offsets 0,5 — offset 0 agrees
        merged = xor_merge_packets(original, [a, b])
        assert merged.payload == b"XYcdeZ"

    def test_size_conflict_error_carries_uid_and_branches(self):
        packet = Packet(payload=b"short")
        original = packet.to_bytes()
        a = packet.clone()
        a.payload = b"longer A!"
        b = packet.clone()
        b.payload = b"even longer B!"
        with pytest.raises(MergeConflictError) as excinfo:
            xor_merge_packets(original, [a, b])
        err = excinfo.value
        assert err.uid == packet.uid
        assert len(err.branches) == 2
        assert err.offsets == ()

    def test_equal_resized_copies_keep_their_own_labels(self):
        """Equal copies are still distinct branches: each resizer is
        named by its own position, not by the first equal copy's."""
        packet = Packet(payload=b"short")
        original = packet.to_bytes()
        untouched = packet.clone()
        first, second = packet.clone(), packet.clone()
        first.payload += b"abc"
        second.payload += b"abc"
        assert first == second
        with pytest.raises(MergeConflictError) as excinfo:
            xor_merge_packets(original, [untouched, first, second],
                              branch_names=("fw", "ids", "nat"))
        assert excinfo.value.branches == ("ids", "nat")

    def test_merge_conflict_is_a_value_error(self):
        assert issubclass(MergeConflictError, ValueError)


class TestAutoLengthRestoration:
    """The seed-75 fix: reconstruction must not freeze auto-computed
    length fields that every branch left as the 0 sentinel."""

    def test_ipv4_total_length_sentinel_restored(self):
        packet = Packet(payload=b"abcdef")
        assert packet.ip.total_length == 0
        original = packet.to_bytes()
        a = packet.clone()
        a.ip.ttl = 7
        b = packet.clone()
        b.payload = b"ABCDEF"
        merged = xor_merge_packets(original, [a, b])
        assert merged.ip.total_length == 0
        # A later size-changing NF now serializes a correct length.
        merged.payload = b"xy"
        reparsed = Packet.from_bytes(merged.to_bytes())
        assert reparsed.payload == b"xy"

    def test_frozen_length_stays_frozen(self):
        """If a branch carries an explicit (frozen) length, the merge
        must not second-guess it."""
        packet = Packet(payload=b"abcdef")
        packet.ip.total_length = 20 + 8 + 6
        original = packet.to_bytes()
        a = packet.clone()
        a.ip.ttl = 7
        b = packet.clone()
        b.payload = b"ABCDEF"
        merged = xor_merge_packets(original, [a, b])
        assert merged.ip.total_length == 20 + 8 + 6

    def test_udp_length_sentinel_restored(self):
        packet = Packet(payload=b"abcdef")
        assert packet.l4.length == 0
        original = packet.to_bytes()
        a = packet.clone()
        a.ip.ttl = 7
        b = packet.clone()
        b.payload = b"ABCDEF"
        merged = xor_merge_packets(original, [a, b])
        assert merged.l4.length == 0


class TestXorMergeElement:
    def test_merges_complete_sets(self):
        packet = Packet(payload=b"data")
        snap(packet)
        clones = [packet.clone(), packet.clone()]
        merge = XorMerge(branch_count=2)
        out = merge.push(PacketBatch(clones))
        assert len(out[0]) == 1
        assert merge.merged_count == 1

    def test_incomplete_set_dropped(self):
        """A packet dropped by one branch is dropped by the merge."""
        packet = Packet(payload=b"data")
        snap(packet)
        merge = XorMerge(branch_count=3)
        out = merge.push(PacketBatch([packet.clone(), packet.clone()]))
        assert len(out[0].live_packets) == 0
        assert merge.dropped_by_branch == 1

    def test_output_sorted_by_seqno(self):
        a = snap(Packet(payload=b"a", seqno=2))
        b = snap(Packet(payload=b"b", seqno=1))
        merge = XorMerge(branch_count=1)
        out = merge.push(PacketBatch([a, b]))
        assert [p.seqno for p in out[0]] == [1, 2]

    def test_missing_snapshot_rejected(self):
        merge = XorMerge(branch_count=1)
        with pytest.raises(MergeConflictError):
            merge.push(PacketBatch([Packet(payload=b"x")]))

    def test_snapshot_element_records_bytes(self):
        packet = Packet(payload=b"payload")
        OriginalSnapshot().push(PacketBatch([packet]))
        assert packet.annotations["orig_bytes"] == packet.to_bytes()

    def test_invalid_branch_count(self):
        with pytest.raises(ValueError):
            XorMerge(branch_count=0)

    def test_cost_hints_carry_branches(self):
        assert XorMerge(branch_count=4).cost_hints()["branches"] == 4.0


class TestXorMergeEdgeCases:
    def test_empty_batch_yields_empty_batch(self):
        merge = XorMerge(branch_count=2)
        out = merge.push(PacketBatch([]))
        assert len(out[0]) == 0
        assert merge.merged_count == 0

    def test_all_packets_dropped_by_one_branch(self):
        """An entire batch killed on one branch: every uid arrives with
        fewer clones than branch_count and the merge drops them all."""
        packets = [snap(Packet(payload=bytes([i]) * 8, seqno=i))
                   for i in range(4)]
        merge = XorMerge(branch_count=2)
        out = merge.push(PacketBatch([p.clone() for p in packets]))
        assert len(out[0].live_packets) == 0
        assert merge.dropped_by_branch == 4

    def test_duplicated_clones_collapse_to_one(self):
        """branch_count clones of one uid collapse into exactly one
        output packet — the dedup behind the packet-conservation
        invariant."""
        packet = snap(Packet(payload=b"payload!"))
        merge = XorMerge(branch_count=3)
        out = merge.push(PacketBatch([packet.clone() for _ in range(3)]))
        uids = [p.uid for p in out[0].live_packets]
        assert uids == [packet.uid]

    def test_oracle_confirms_dedup_on_parallel_chain(self):
        """End-to-end: the differential oracle certifies that a
        three-way parallel stage delivers each uid exactly once."""
        from repro.validate import ChainSpec, run_differential
        report = run_differential(
            ChainSpec(nf_types=("firewall", "ids", "lb"), name="m"),
            packet_count=48, with_partition=False,
        )
        assert report.ok, report.summary()
        assert not any(d.field == "copies" for d in report.packet_diffs)

    def test_oracle_confirms_all_drop_branch_chain(self):
        """End-to-end: when the dropper kills every packet, the merged
        graph must deliver exactly what the sequential chain does —
        nothing."""
        from builders import make_traffic_spec
        from repro.traffic.dpi_profiles import make_pattern_set
        from repro.validate import ChainSpec, run_differential

        pattern = make_pattern_set()[0]

        def payload(rng, size):
            return pattern + bytes(max(0, size - len(pattern)))

        spec = make_traffic_spec(packet_size=256,
                                 payload_maker=payload)
        report = run_differential(
            ChainSpec(nf_types=("firewall", "ids", "lb"), name="m"),
            traffic_spec=spec, packet_count=48, with_partition=False,
        )
        assert report.ok, report.summary()
        assert report.golden_delivered == 0
        assert report.candidate_delivered == 0


class TestSerializations:
    """The merge serializes each branch copy at most once, and
    field-equal copies not at all (equal fields imply equal bytes)."""

    def test_two_copy_delta_merge_serializes_twice(self):
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        reader, writer = packet.clone(), packet.clone()
        writer.ip.ttl = 9
        with counted_serializations() as calls:
            merged = xor_merge_packets(original, [reader, writer])
        assert len(calls) == 2
        assert merged.ip.ttl == 9

    def test_field_equal_merge_serializes_nothing(self):
        packet = Packet(payload=b"abcdef")
        original = packet.to_bytes()
        first, second = packet.clone(), packet.clone()
        first.payload = second.payload = b"ABCDEF"
        with counted_serializations() as calls:
            merged = xor_merge_packets(original, [first, second])
        assert calls == []
        assert merged.payload == b"ABCDEF"
