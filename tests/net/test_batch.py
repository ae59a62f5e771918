"""Unit tests for packet batches: splits and merges."""

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
        assert set(result) == {0, 1}
        assert len(result[0]) == 5
        assert len(result[1]) == 5

    def test_split_preserves_intra_key_order(self):
        batch = PacketBatch(make_packets(10))
        result = batch.split_by(lambda p: p.seqno % 3)
        for sub in result.values():
            seqnos = [p.seqno for p in sub]
            assert seqnos == sorted(seqnos)

    def test_sub_batches_keep_the_creation_time(self):
        batch = PacketBatch(make_packets(4), creation_time=2.5)
        for sub in batch.split_by(lambda p: p.seqno % 2).values():
            assert sub.creation_time == 2.5


class TestMerge:
    def test_merge_restores_order(self):
        batch = PacketBatch(make_packets(10))
        result = batch.split_by(lambda p: p.seqno % 2)
        merged = PacketBatch.merge(result.values())
        assert [p.seqno for p in merged] == list(range(10))

    def test_merge_keeps_the_earliest_creation_time(self):
        later = PacketBatch(make_packets(2), creation_time=3.0)
        earlier = PacketBatch(make_packets(2, start_seq=2), creation_time=1.0)
        assert PacketBatch.merge([later, earlier]).creation_time == 1.0

    def test_merge_empty(self):
        merged = PacketBatch.merge([])
        assert len(merged) == 0
