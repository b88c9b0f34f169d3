"""Unit tests for the whole-tuple primary index (Figure 4.4)."""

import random

import pytest

from repro.core.phi import OrdinalMapper
from repro.errors import IndexError_
from repro.index.primary import PrimaryIndex
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def mapper():
    return OrdinalMapper([8, 16, 64, 64, 64])


class TestDirectoryProbes:
    def test_locate_floor_semantics(self, mapper):
        idx = PrimaryIndex.build(mapper, [(100, 0), (500, 1), (900, 2)])
        assert idx.locate_ordinal(100) == 0
        assert idx.locate_ordinal(499) == 0
        assert idx.locate_ordinal(500) == 1
        assert idx.locate_ordinal(10**6) == 2

    def test_locate_below_first_block_returns_first(self, mapper):
        idx = PrimaryIndex.build(mapper, [(100, 7), (500, 8)])
        assert idx.locate_ordinal(50) == 7

    def test_locate_on_empty_index(self, mapper):
        idx = PrimaryIndex(mapper)
        assert idx.locate_ordinal(5) is None

    def test_locate_by_tuple(self, mapper):
        idx = PrimaryIndex.build(mapper, [(0, 0), (14830051, 1)])
        assert idx.locate((3, 8, 36, 39, 35)) == 1
        assert idx.locate((0, 0, 0, 0, 1)) == 0


class TestMaintenance:
    def test_add_remove_move(self, mapper):
        idx = PrimaryIndex(mapper)
        idx.add_block(100, 0)
        idx.add_block(500, 1)
        idx.move_block(100, 50, 0)
        assert idx.locate_ordinal(75) == 0
        idx.remove_block(50)
        assert idx.locate_ordinal(75) == 1  # falls back to first block
        assert idx.num_blocks == 1

    def test_duplicate_first_ordinal_rejected(self, mapper):
        idx = PrimaryIndex(mapper)
        idx.add_block(100, 0)
        with pytest.raises(IndexError_):
            idx.add_block(100, 1)

    def test_move_unknown_key_rejected(self, mapper):
        idx = PrimaryIndex(mapper)
        with pytest.raises(IndexError_):
            idx.move_block(1, 2, 0)

    def test_remove_unknown_key_rejected(self, mapper):
        idx = PrimaryIndex(mapper)
        with pytest.raises(IndexError_):
            idx.remove_block(1)


class TestAgainstAVQFile:
    def test_every_tuple_locatable_through_index(self):
        schema = Schema(
            [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(5)]
        )
        rng = random.Random(5)
        rel = Relation(
            schema,
            [tuple(rng.randrange(64) for _ in range(5)) for _ in range(600)],
        )
        disk = SimulatedDisk(block_size=256)
        f = AVQFile.build(rel, disk)
        idx = PrimaryIndex.build(
            schema.mapper,
            [(first, block_id) for block_id, first, _, _ in f.block_directory],
        )
        assert idx.num_blocks == f.num_blocks
        for t in rel.sorted_by_phi()[::29]:
            block_id = idx.locate(t)
            assert t in f.read_block_id(block_id)
