"""Unit tests for the uncompressed heap-file baseline."""

import random

import pytest

from repro.errors import StorageError
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk
from repro.storage.heapfile import HeapFile


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


class TestHeapFileBuild:
    def test_scan_returns_phi_sorted_tuples(self, schema):
        rel = random_relation(schema, 500)
        disk = SimulatedDisk(block_size=256)
        hf = HeapFile.build(rel, disk)
        assert list(hf.scan()) == rel.sorted_by_phi()
        assert hf.num_tuples == 500

    def test_unsorted_build_preserves_insertion_order(self, schema):
        rel = random_relation(schema, 100, seed=1)
        disk = SimulatedDisk(block_size=256)
        hf = HeapFile.build(rel, disk, sort=False)
        assert list(hf.scan()) == list(rel)

    def test_block_count_matches_fixed_width_arithmetic(self, schema):
        rel = random_relation(schema, 1000, seed=2)
        disk = SimulatedDisk(block_size=256)
        hf = HeapFile.build(rel, disk)
        per_block = (256 - 2) // 5  # 2-byte count header, 5-byte tuples
        expected = -(-1000 // per_block)  # ceil division
        assert hf.tuples_per_block == per_block
        assert hf.num_blocks == expected

    def test_tiny_block_rejected(self, schema):
        disk = SimulatedDisk(block_size=4)
        with pytest.raises(StorageError):
            HeapFile(schema, disk)

    def test_empty_relation(self, schema):
        disk = SimulatedDisk(block_size=256)
        hf = HeapFile.build(Relation(schema), disk)
        assert hf.num_blocks == 0
        assert list(hf.scan()) == []


class TestHeapFileAccess:
    def test_read_block_charges_io(self, schema):
        rel = random_relation(schema, 200, seed=3)
        disk = SimulatedDisk(block_size=256)
        hf = HeapFile.build(rel, disk)
        disk.stats.reset()
        hf.read_block(0)
        assert disk.stats.blocks_read == 1

    def test_extract_parses_without_io(self, schema):
        rel = random_relation(schema, 50, seed=4)
        disk = SimulatedDisk(block_size=256)
        hf = HeapFile.build(rel, disk)
        payload = disk.read_block(hf.block_ids[0])
        disk.stats.reset()
        tuples = hf.extract(payload)
        assert disk.stats.blocks_read == 0
        assert tuples == rel.sorted_by_phi()[: len(tuples)]

    def test_bad_position_rejected(self, schema):
        rel = random_relation(schema, 10, seed=5)
        disk = SimulatedDisk(block_size=256)
        hf = HeapFile.build(rel, disk)
        with pytest.raises(StorageError):
            hf.read_block(99)

    def test_corrupt_block_rejected(self, schema):
        disk = SimulatedDisk(block_size=256)
        hf = HeapFile(schema, disk)
        with pytest.raises(StorageError):
            hf.extract((999).to_bytes(2, "big") + bytes(10))

    def test_block_of_ordinal_finds_covering_block(self, schema):
        """A heap table keys the file's directory once; its covering
        rule finds the block holding a stored tuple."""
        from repro.db.table import Table

        rel = random_relation(schema, 500, seed=6)
        disk = SimulatedDisk(block_size=256)
        hf = HeapFile.build(rel, disk)
        mapper = schema.mapper
        target = rel.sorted_by_phi()[250]
        directory = Table("t", schema, hf)._directory()
        pos = directory.covering(mapper.phi(target))
        assert target in hf.read_block(pos)

    def test_block_of_ordinal_requires_sorted(self, schema):
        from repro.db.table import Table
        from repro.errors import QueryError

        rel = random_relation(schema, 50, seed=7)
        disk = SimulatedDisk(block_size=256)
        hf = HeapFile.build(rel, disk, sort=False)
        with pytest.raises(QueryError):
            Table("t", schema, hf)
