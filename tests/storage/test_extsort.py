"""Unit tests for external sorting and bounded-memory bulk loading."""

import random

import pytest

from repro.errors import StorageError
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk
from repro.storage.extsort import bulk_load, external_sort_ordinals


@pytest.fixture
def schema():
    return Schema(
        [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(4)]
    )


class TestExternalSort:
    def test_in_memory_when_under_budget(self):
        disk = SimulatedDisk(block_size=64)
        out = list(
            external_sort_ordinals(
                [5, 3, 9, 1],
                memory_budget=100,
                spill_disk=disk,
                max_ordinal=100,
            )
        )
        assert out == [1, 3, 5, 9]
        assert disk.stats.blocks_written == 0  # never spilled

    def test_spilled_sort_is_correct(self):
        rng = random.Random(5)
        values = [rng.randrange(10**9) for _ in range(5000)]
        disk = SimulatedDisk(block_size=256)
        out = list(
            external_sort_ordinals(
                iter(values),
                memory_budget=300,
                spill_disk=disk,
                max_ordinal=10**9,
            )
        )
        assert out == sorted(values)
        assert disk.stats.blocks_written > 0  # spilling happened

    def test_duplicates_preserved(self):
        disk = SimulatedDisk(block_size=64)
        values = [7, 7, 3, 7, 3]
        out = list(
            external_sort_ordinals(
                values, memory_budget=2, spill_disk=disk, max_ordinal=10
            )
        )
        assert out == [3, 3, 7, 7, 7]

    def test_empty_input(self):
        disk = SimulatedDisk(block_size=64)
        assert list(
            external_sort_ordinals(
                [], memory_budget=5, spill_disk=disk, max_ordinal=10
            )
        ) == []

    def test_huge_ordinals_spill_correctly(self):
        """Spill encoding must handle > 64-bit ordinals."""
        big = 2**100
        disk = SimulatedDisk(block_size=256)
        values = [big + 3, big + 1, 5, big + 2]
        out = list(
            external_sort_ordinals(
                values, memory_budget=2, spill_disk=disk,
                max_ordinal=big + 10,
            )
        )
        assert out == [5, big + 1, big + 2, big + 3]

    def test_bad_budget_rejected(self):
        disk = SimulatedDisk(block_size=64)
        with pytest.raises(StorageError):
            list(external_sort_ordinals([1], memory_budget=0,
                                        spill_disk=disk, max_ordinal=1))

    def test_out_of_range_ordinal_rejected(self):
        disk = SimulatedDisk(block_size=64)
        with pytest.raises(StorageError):
            list(external_sort_ordinals([11], memory_budget=5,
                                        spill_disk=disk, max_ordinal=10))


class TestBulkLoad:
    def test_matches_in_memory_build(self, schema):
        rng = random.Random(9)
        tuples = [
            tuple(rng.randrange(64) for _ in range(4)) for _ in range(3000)
        ]
        rel = Relation(schema, tuples)

        memory_disk = SimulatedDisk(block_size=512)
        in_memory = AVQFile.build(rel, memory_disk)

        bulk_disk = SimulatedDisk(block_size=512)
        bulk = bulk_load(
            schema, iter(tuples), bulk_disk, memory_budget=200
        )
        assert list(bulk.scan()) == list(in_memory.scan())
        assert bulk.num_blocks == in_memory.num_blocks

    def test_streaming_source(self, schema):
        def source():
            rng = random.Random(10)
            for _ in range(1000):
                yield tuple(rng.randrange(64) for _ in range(4))

        disk = SimulatedDisk(block_size=512)
        f = bulk_load(schema, source(), disk, memory_budget=64)
        assert f.num_tuples == 1000
        scanned = list(f.scan())
        assert scanned == sorted(scanned, key=schema.mapper.phi)

    def test_spill_io_is_charged(self, schema):
        rng = random.Random(11)
        tuples = [
            tuple(rng.randrange(64) for _ in range(4)) for _ in range(2000)
        ]
        spill = SimulatedDisk(block_size=512)
        data = SimulatedDisk(block_size=512)
        bulk_load(schema, tuples, data, memory_budget=100, spill_disk=spill)
        assert spill.stats.blocks_written > 0
        assert spill.stats.blocks_read > 0

    def test_unchained_codec_rejected(self, schema):
        from repro.core.codec import BlockCodec

        disk = SimulatedDisk(block_size=512)
        with pytest.raises(StorageError):
            bulk_load(
                schema,
                [],
                disk,
                codec=BlockCodec(schema.domain_sizes, chained=False),
            )

    def test_empty_stream(self, schema):
        disk = SimulatedDisk(block_size=512)
        f = bulk_load(schema, [], disk)
        assert f.num_blocks == 0
        assert f.num_tuples == 0

    def test_loaded_file_supports_mutations(self, schema):
        rng = random.Random(12)
        tuples = [
            tuple(rng.randrange(64) for _ in range(4)) for _ in range(500)
        ]
        disk = SimulatedDisk(block_size=512)
        f = bulk_load(schema, tuples, disk, memory_budget=50)
        f.insert((0, 0, 0, 0))
        assert next(iter(f.scan())) == (0, 0, 0, 0)
        assert f.delete((0, 0, 0, 0))


class TestBulkLoadBytes:
    # 200 tuples of memory spills sorted runs and merges them; 100k
    # sorts the whole stream in memory.
    @pytest.mark.parametrize("memory_budget", [200, 100_000])
    def test_blocks_byte_identical_to_build(self, schema, memory_budget):
        rng = random.Random(13)
        tuples = [
            tuple(rng.randrange(64) for _ in range(4)) for _ in range(3000)
        ]
        loaded_disk = SimulatedDisk(block_size=256)
        loaded = bulk_load(
            schema, iter(tuples), loaded_disk, memory_budget=memory_budget
        )
        built_disk = SimulatedDisk(block_size=256)
        built = AVQFile.build(Relation(schema, tuples), built_disk)
        assert loaded.num_blocks == built.num_blocks
        assert [
            built_disk.read_block(i) for i in built.block_ids
        ] == [loaded_disk.read_block(i) for i in loaded.block_ids]
