"""Unit tests for packet batches and re-organization accounting."""

from repro.net.batch import PacketBatch
from repro.net.packet import Packet


def make_packets(count, start_seq=0):
    return [Packet(payload=bytes([i % 251]), seqno=start_seq + i)
            for i in range(count)]


class TestBatchBasics:
    def test_len_and_iter(self):
        batch = PacketBatch(make_packets(5))
        assert len(batch) == 5
        assert [p.seqno for p in batch] == [0, 1, 2, 3, 4]

    def test_indexing(self):
        batch = PacketBatch(make_packets(3))
        assert batch[1].seqno == 1

    def test_uids_unique_per_batch(self):
        assert PacketBatch().uid != PacketBatch().uid

    def test_live_packets_excludes_dropped(self):
        packets = make_packets(4)
        packets[2].mark_dropped("x")
        batch = PacketBatch(packets)
        assert len(batch.live_packets) == 3

    def test_total_bytes(self):
        batch = PacketBatch(make_packets(3))
        assert batch.total_bytes == sum(p.wire_len for p in batch)

    def test_append(self):
        batch = PacketBatch()
        batch.append(Packet())
        assert len(batch) == 1


class TestSplit:
    def test_split_by_partitions_packets(self):
        batch = PacketBatch(make_packets(10))
        result = batch.split_by(lambda p: p.seqno % 2)
        assert set(result.sub_batches) == {0, 1}
        assert len(result.sub_batches[0]) == 5
        assert len(result.sub_batches[1]) == 5

    def test_split_preserves_intra_key_order(self):
        batch = PacketBatch(make_packets(10))
        result = batch.split_by(lambda p: p.seqno % 3)
        for sub in result.sub_batches.values():
            seqnos = [p.seqno for p in sub]
            assert seqnos == sorted(seqnos)

    def test_split_overhead_counted_only_when_multiple_buckets(self):
        batch = PacketBatch(make_packets(8))
        split = batch.split_by(lambda p: p.seqno % 2)
        assert split.split_overhead_ops == 8
        single = PacketBatch(make_packets(8)).split_by(lambda p: 0)
        assert single.split_overhead_ops == 0

    def test_split_increments_generation(self):
        batch = PacketBatch(make_packets(4))
        result = batch.split_by(lambda p: p.seqno % 2)
        for sub in result.sub_batches.values():
            assert sub.generation == 1
            assert sub.split_count == 1


class TestMerge:
    def test_merge_restores_order(self):
        batch = PacketBatch(make_packets(10))
        result = batch.split_by(lambda p: p.seqno % 2)
        merged = PacketBatch.merge(result.sub_batches.values())
        assert [p.seqno for p in merged] == list(range(10))

    def test_merge_counts(self):
        a = PacketBatch(make_packets(2))
        merged = PacketBatch.merge([a])
        assert merged.merge_count == 1

    def test_merge_empty(self):
        merged = PacketBatch.merge([])
        assert len(merged) == 0


class TestTakeAndPartition:
    def test_take_removes_head(self):
        batch = PacketBatch(make_packets(6))
        head = batch.take(2)
        assert [p.seqno for p in head] == [0, 1]
        assert [p.seqno for p in batch] == [2, 3, 4, 5]
