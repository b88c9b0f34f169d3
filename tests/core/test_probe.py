"""Tests for the point probe (``Table.contains``)."""

import random

import pytest

from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk


class TestTableContains:
    @pytest.fixture
    def setup(self):
        schema = Schema(
            [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(5)]
        )
        rng = random.Random(5)
        rel = Relation(
            schema,
            [tuple(rng.randrange(64) for _ in range(5)) for _ in range(600)],
        )
        return schema, rel

    @pytest.mark.parametrize("compressed", [True, False])
    def test_contains_agrees_with_membership(self, setup, compressed):
        from repro.db.table import Table

        schema, rel = setup
        disk = SimulatedDisk(block_size=256)
        table = Table.from_relation("t", rel, disk, compressed=compressed)
        members = set(rel)
        rng = random.Random(6)
        for t in list(members)[:40]:
            assert table.contains(t)
        for _ in range(100):
            probe = tuple(rng.randrange(64) for _ in range(5))
            assert table.contains(probe) == (probe in members)

    def test_contains_reads_one_block(self, setup):
        from repro.db.table import Table

        schema, rel = setup
        disk = SimulatedDisk(block_size=256)
        table = Table.from_relation("t", rel, disk)
        disk.stats.reset()
        table.contains(rel[0])
        assert disk.stats.blocks_read == 1

    def test_contains_on_empty_table(self, setup):
        from repro.db.table import Table

        schema, _ = setup
        table = Table.from_relation(
            "t", Relation(schema), SimulatedDisk(256)
        )
        assert not table.contains((0, 0, 0, 0, 0))

    def test_avqfile_contains_out_of_block_range(self, setup):
        from repro.db.table import Table

        schema, rel = setup
        disk = SimulatedDisk(block_size=256)
        f = AVQFile.build(rel, disk)
        table = Table("t", schema, f)
        # an ordinal below the first block's range costs no read
        first_min = f.block_range(0)[0]
        if first_min > 0:
            disk.stats.reset()
            below = schema.mapper.phi_inverse(first_min - 1)
            assert not table.contains(below)
            assert disk.stats.blocks_read == 0
