"""Unit tests for AVQ-coded relation storage, including Section 4.2 mutation."""

import random

import pytest

from repro.core.codec import BlockCodec
from repro.errors import StorageError
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def schema():
    return Schema(
        [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(5)]
    )


def random_relation(schema, n, seed=0):
    rng = random.Random(seed)
    return Relation(
        schema, [tuple(rng.randrange(64) for _ in range(5)) for _ in range(n)]
    )


def build(schema, n, seed=0, block_size=256):
    rel = random_relation(schema, n, seed)
    disk = SimulatedDisk(block_size=block_size)
    return rel, disk, AVQFile.build(rel, disk)


class TestBuildAndScan:
    def test_scan_recovers_sorted_relation(self, schema):
        rel, _, f = build(schema, 500)
        assert list(f.scan()) == rel.sorted_by_phi()
        assert f.num_tuples == 500

    def test_uses_fewer_blocks_than_heap(self, schema):
        from repro.storage.heapfile import HeapFile

        rel = random_relation(schema, 2000, seed=1)
        coded_disk = SimulatedDisk(block_size=512)
        heap_disk = SimulatedDisk(block_size=512)
        coded = AVQFile.build(rel, coded_disk)
        heap = HeapFile.build(rel, heap_disk)
        assert coded.num_blocks < heap.num_blocks

    def test_block_ranges_are_disjoint_and_ascending(self, schema):
        _, _, f = build(schema, 800, seed=2)
        ranges = [f.block_range(p) for p in range(f.num_blocks)]
        for (lo, hi) in ranges:
            assert lo <= hi
        for (_, hi), (lo2, _) in zip(ranges, ranges[1:]):
            assert hi <= lo2

    def test_empty_relation(self, schema):
        disk = SimulatedDisk(block_size=256)
        f = AVQFile.build(Relation(schema), disk)
        assert f.num_blocks == 0
        assert f.block_of_ordinal(0) is None

    def test_mismatched_codec_rejected(self, schema):
        from repro.core.codec import BlockCodec

        disk = SimulatedDisk(block_size=256)
        with pytest.raises(StorageError):
            AVQFile(schema, disk, codec=BlockCodec([4, 4]))


class TestLookup:
    def test_block_of_ordinal_covers_every_tuple(self, schema):
        rel, _, f = build(schema, 400, seed=3)
        mapper = schema.mapper
        for t in rel.sorted_by_phi()[::37]:
            pos = f.block_of_ordinal(mapper.phi(t))
            assert t in f.read_block(pos)

    def test_blocks_overlapping_finds_exact_cover(self, schema):
        _, _, f = build(schema, 600, seed=4)
        lo, hi = 10**6, 5 * 10**6
        cover = list(f.block_directory.cover(lo, hi))
        # every block in the cover intersects the range...
        for pos in cover:
            bmin, bmax = f.block_range(pos)
            assert bmax >= lo and bmin <= hi
        # ...and no block outside it does
        for pos in range(f.num_blocks):
            if pos not in cover:
                bmin, bmax = f.block_range(pos)
                assert bmax < lo or bmin > hi

    def test_blocks_overlapping_empty_range(self, schema):
        _, _, f = build(schema, 100, seed=5)
        assert list(f.block_directory.cover(5, 4)) == []

    def test_read_block_charges_io(self, schema):
        _, disk, f = build(schema, 100, seed=6)
        disk.stats.reset()
        f.read_block(0)
        assert disk.stats.blocks_read == 1

    def test_bad_position_rejected(self, schema):
        _, _, f = build(schema, 10, seed=7)
        with pytest.raises(StorageError):
            f.read_block(999)


class TestMutation:
    def test_insert_into_existing_block(self, schema):
        rel, _, f = build(schema, 300, seed=8)
        new = (1, 2, 3, 4, 5)
        before = f.num_tuples
        f.insert(new)
        assert f.num_tuples == before + 1
        expected = sorted(rel.sorted_by_phi() + [new], key=schema.mapper.phi)
        assert list(f.scan()) == expected

    def test_insert_below_first_block(self, schema):
        _, _, f = build(schema, 300, seed=9)
        f.insert((0, 0, 0, 0, 0))
        assert next(iter(f.scan())) == (0, 0, 0, 0, 0)

    def test_insert_above_last_block(self, schema):
        _, _, f = build(schema, 300, seed=10)
        f.insert((63, 63, 63, 63, 63))
        assert list(f.scan())[-1] == (63, 63, 63, 63, 63)

    def test_insert_into_empty_file(self, schema):
        disk = SimulatedDisk(block_size=256)
        f = AVQFile.build(Relation(schema), disk)
        f.insert((1, 1, 1, 1, 1))
        assert list(f.scan()) == [(1, 1, 1, 1, 1)]

    def test_insert_overflow_splits_block(self, schema):
        # A small block size forces the split path quickly.
        rel = random_relation(schema, 50, seed=11)
        disk = SimulatedDisk(block_size=64)
        f = AVQFile.build(rel, disk)
        blocks_before = f.num_blocks
        rng = random.Random(12)
        extra = [tuple(rng.randrange(64) for _ in range(5)) for _ in range(200)]
        for t in extra:
            f.insert(t)
        assert f.num_blocks > blocks_before
        expected = sorted(list(rel) + extra, key=schema.mapper.phi)
        assert list(f.scan()) == expected

    def test_delete_existing_tuple(self, schema):
        rel, _, f = build(schema, 300, seed=13)
        victim = rel.sorted_by_phi()[150]
        assert f.delete(victim)
        remaining = list(f.scan())
        assert f.num_tuples == 299
        expected = rel.sorted_by_phi()
        expected.remove(victim)
        assert remaining == expected

    def test_delete_missing_tuple_returns_false(self, schema):
        rel, _, f = build(schema, 50, seed=14)
        missing = (63, 63, 63, 63, 62)
        if missing in rel:  # pragma: no cover - vanishingly unlikely
            pytest.skip("random collision")
        assert not f.delete(missing)
        assert f.num_tuples == 50

    def test_delete_last_tuple_of_block_removes_block(self, schema):
        disk = SimulatedDisk(block_size=256)
        rel = Relation(schema, [(1, 1, 1, 1, 1)])
        f = AVQFile.build(rel, disk)
        assert f.delete((1, 1, 1, 1, 1))
        assert f.num_blocks == 0
        assert f.num_tuples == 0

    def test_delete_one_of_duplicates(self, schema):
        disk = SimulatedDisk(block_size=256)
        rel = Relation(schema, [(2, 2, 2, 2, 2)] * 3)
        f = AVQFile.build(rel, disk)
        assert f.delete((2, 2, 2, 2, 2))
        assert f.num_tuples == 2
        assert list(f.scan()) == [(2, 2, 2, 2, 2)] * 2

    def test_mutation_confined_to_affected_block(self, schema):
        """Section 4.2: changes are confined to the block touched."""
        rel, disk, f = build(schema, 500, seed=15)
        target = rel.sorted_by_phi()[250]
        pos = f.block_of_ordinal(schema.mapper.phi(target))
        disk.stats.reset()
        f.insert(target)
        # one read (the block) and one write (its re-encoding), or a split
        assert disk.stats.blocks_read == 1
        assert disk.stats.blocks_written in (1, 2)


class TestDirectoryProbe:
    """ISSUE-2 satellite: the directory alone must answer out-of-range
    probes — no disk I/O, and never a mis-indexed block."""

    def build_windowed(self, schema):
        # Every stored tuple sits well inside the ordinal range, so both
        # below-min and above-max probes exist.
        rel = Relation(
            schema,
            [(20, i, i, i, i) for i in range(30)]
            + [(40, i, i, i, i) for i in range(30)],
        )
        disk = SimulatedDisk(block_size=128)
        return disk, AVQFile.build(rel, disk)

    def test_block_of_ordinal_below_min_is_block_zero(self, schema):
        _, f = self.build_windowed(schema)
        below = schema.mapper.phi((0, 0, 0, 0, 0))
        assert below < f.block_range(0)[0]
        assert f.block_of_ordinal(below) == 0  # -1 would index the last

    def test_covering_block_none_outside_every_range(self, schema):
        _, f = self.build_windowed(schema)
        below = schema.mapper.phi((0, 0, 0, 0, 0))
        above = schema.mapper.phi((63, 63, 63, 63, 63))
        assert f.block_directory.covering(below) is None
        assert f.block_directory.covering(above) is None
        # in-gap ordinals between blocks may or may not be covered, but
        # every stored ordinal must be
        for t in [(20, 0, 0, 0, 0), (40, 29, 29, 29, 29)]:
            pos = f.block_directory.covering(schema.mapper.phi(t))
            assert pos is not None
            lo, hi = f.block_range(pos)
            assert lo <= schema.mapper.phi(t) <= hi

    def test_covering_block_empty_file(self, schema):
        disk = SimulatedDisk(block_size=256)
        f = AVQFile.build(Relation(schema), disk)
        assert f.block_directory.covering(0) is None

    def test_contains_out_of_range_reads_nothing(self, schema):
        from repro.db.table import Table

        disk, f = self.build_windowed(schema)
        table = Table("t", schema, f)
        disk.stats.reset()
        assert not table.contains((0, 0, 0, 0, 0))
        assert not table.contains((63, 63, 63, 63, 63))
        assert disk.stats.blocks_read == 0

    def test_delete_out_of_range_reads_nothing(self, schema):
        """Regression: delete used to decode a block just to discover the
        ordinal could not be in it (and, without the bisect guard, would
        have probed the *last* block for a below-min ordinal)."""
        disk, f = self.build_windowed(schema)
        before = f.num_tuples
        disk.stats.reset()
        assert not f.delete((0, 0, 0, 0, 0))
        assert not f.delete((63, 63, 63, 63, 63))
        assert disk.stats.blocks_read == 0
        assert disk.stats.blocks_written == 0
        assert f.num_tuples == before

    def test_table_delete_out_of_range_reads_nothing(self, schema):
        """The table picks its block with the file's covering rule, so
        it neither integrity-checks, stashes nor reads a block that
        ``AVQFile.delete`` would not touch."""
        from repro.db.table import Table

        disk, f = self.build_windowed(schema)
        table = Table("t", schema, f)
        store = table.enable_mvcc()
        disk.stats.reset()
        assert not table.delete((0, 0, 0, 0, 0))
        assert not table.delete((63, 63, 63, 63, 63))
        assert disk.stats.blocks_read == 0
        assert store.stats.stashed == 0

    def test_delete_in_range_still_works(self, schema):
        disk, f = self.build_windowed(schema)
        assert f.delete((20, 5, 5, 5, 5))
        assert schema.mapper.phi((20, 5, 5, 5, 5)) not in f.all_ordinals()


class TestVerifyDirectory:
    def test_clean_file_verifies(self, schema):
        _, _, f = build(schema, 400, seed=16)
        f.verify_directory()

    def test_verify_after_split_churn(self, schema):
        rel = random_relation(schema, 40, seed=17)
        disk = SimulatedDisk(block_size=64)
        f = AVQFile.build(rel, disk)
        rng = random.Random(18)
        for _ in range(150):
            f.insert(tuple(rng.randrange(64) for _ in range(5)))
        f.verify_directory()

    def test_corrupted_directory_detected(self, schema):
        _, _, f = build(schema, 200, seed=19)
        f.block_directory.firsts[0] -= 1  # a stale directory entry
        with pytest.raises(StorageError):
            f.verify_directory()


class TestBuildByteIdentity:
    @pytest.mark.parametrize("block_size", [256, 64])
    def test_build_blocks_byte_identical(self, schema, block_size):
        # The default build packs and encodes in numpy; forcing the
        # scalar codec must write exactly the same blocks.
        rel = random_relation(schema, 600, seed=20)
        scalar_disk = SimulatedDisk(block_size=block_size)
        vector_disk = SimulatedDisk(block_size=block_size)
        scalar = AVQFile.build(
            rel, scalar_disk,
            codec=BlockCodec(schema.domain_sizes, vectorized=False),
        )
        vector = AVQFile.build(rel, vector_disk)
        assert vector.codec.vectorized and not scalar.codec.vectorized
        assert scalar.num_blocks == vector.num_blocks
        assert [
            scalar_disk.read_block(i) for i in scalar.block_ids
        ] == [vector_disk.read_block(i) for i in vector.block_ids]
        assert list(vector.scan()) == rel.sorted_by_phi()
