"""Tests for predicate deletes and storage compaction."""

import random

import pytest

from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.errors import QueryError
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def schema():
    return Schema(
        [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(4)]
    )


def make_table(schema, n=800, seed=0, block_size=256, secondary_on=("a2",)):
    rng = random.Random(seed)
    rel = Relation(
        schema, [tuple(rng.randrange(64) for _ in range(4)) for _ in range(n)]
    )
    disk = SimulatedDisk(block_size=block_size)
    return rel, Table.from_relation(
        "t", rel, disk, secondary_on=list(secondary_on)
    )


class TestDeleteWhere:
    def test_deletes_all_matching(self, schema):
        rel, table = make_table(schema)
        query = RangeQuery.between("a2", 10, 20)
        expected = sum(1 for t in rel if 10 <= t[2] <= 20)
        assert table.delete_where(query) == expected
        assert table.select(query).cardinality == 0
        assert table.num_tuples == len(rel) - expected

    def test_survivors_untouched(self, schema):
        rel, table = make_table(schema, seed=1)
        table.delete_where(RangeQuery.between("a2", 0, 31))
        survivors = sorted(t for t in rel if t[2] > 31)
        assert sorted(table.storage.scan()) == survivors

    def test_empty_match(self, schema):
        _, table = make_table(schema, seed=2)
        before = table.num_tuples
        # a2 > 63 is clamped to 63..63; delete that then nothing remains there
        assert table.delete_where(
            RangeQuery.between("a2", 63, 63)
        ) >= 0
        assert table.delete_where(RangeQuery.between("a2", 63, 63)) == 0
        assert table.num_tuples <= before

    def test_duplicates_all_removed(self, schema):
        disk = SimulatedDisk(block_size=256)
        rel = Relation(schema, [(1, 2, 3, 4)] * 5 + [(2, 2, 9, 4)] * 2)
        table = Table.from_relation("t", rel, disk)
        assert table.delete_where(RangeQuery.between("a2", 3, 3)) == 5
        assert table.num_tuples == 2

    def test_heap_table_rejected(self, schema):
        rng = random.Random(3)
        rel = Relation(
            schema,
            [tuple(rng.randrange(64) for _ in range(4)) for _ in range(50)],
        )
        table = Table.from_relation(
            "h", rel, SimulatedDisk(256), compressed=False
        )
        with pytest.raises(QueryError):
            table.delete_where(RangeQuery.between("a2", 0, 1))


class TestCompaction:
    def churn(self, table, schema, seed=9, rounds=400):
        rng = random.Random(seed)
        live = list(table.storage.scan())
        for _ in range(rounds):
            if rng.random() < 0.5 or not live:
                t = tuple(rng.randrange(64) for _ in range(4))
                table.insert(t)
                live.append(t)
            else:
                victim = live.pop(rng.randrange(len(live)))
                assert table.delete(victim)
        return live

    def test_compaction_reduces_blocks_after_churn(self, schema):
        _, table = make_table(schema, n=400, block_size=128)
        self.churn(table, schema)
        util_before = table.storage.utilisation()
        blocks_before = table.num_blocks
        saved = table.compact()
        assert saved >= 0
        assert table.num_blocks == blocks_before - saved
        assert table.storage.utilisation() >= util_before
        assert saved > 0  # churn at this scale always fragments

    def test_compaction_preserves_contents(self, schema):
        _, table = make_table(schema, n=300, block_size=128)
        live = self.churn(table, schema, seed=10)
        before = sorted(table.storage.scan())
        table.compact()
        assert sorted(table.storage.scan()) == before
        assert sorted(before) == sorted(live)

    def test_indices_rebuilt_after_compaction(self, schema):
        rel, table = make_table(schema, n=300, block_size=128)
        table.create_hash_index("a3")
        self.churn(table, schema, seed=11)
        table.compact()
        # the directory stays phi-clustered, one entry per block
        entries = list(table.storage.block_directory)
        assert len(entries) == table.num_blocks
        assert all(a[2] <= b[1] for a, b in zip(entries, entries[1:]))
        live = list(table.storage.scan())
        for value in range(0, 64, 7):
            expected = sorted(t for t in live if t[2] == value)
            got = table.select(RangeQuery.equals("a2", value))
            assert sorted(got.tuples) == expected
            got_hash = table.select(RangeQuery.equals("a3", value))
            assert sorted(got_hash.tuples) == sorted(
                t for t in live if t[3] == value
            )

    def test_buffered_table_compaction_clears_pool(self, schema):
        rng = random.Random(12)
        rel = Relation(
            schema,
            [tuple(rng.randrange(64) for _ in range(4)) for _ in range(400)],
        )
        disk = SimulatedDisk(block_size=128)
        table = Table.from_relation(
            "t", rel, disk, secondary_on=["a2"], buffer_capacity=100
        )
        table.select(RangeQuery.equals("a2", 5))  # warm the pool
        table.compact()
        assert table.buffer_pool.resident == 0
        live = list(table.storage.scan())
        got = table.select(RangeQuery.equals("a2", 5))
        assert sorted(got.tuples) == sorted(t for t in live if t[2] == 5)

    def test_compact_empty_table(self, schema):
        disk = SimulatedDisk(block_size=256)
        table = Table.from_relation("t", Relation(schema), disk)
        assert table.compact() == 0
        assert table.num_blocks == 0
