"""Unit and integration tests for the Table facade."""

import random

import pytest

from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.errors import QueryError
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def schema():
    return Schema(
        [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(5)]
    )


def make_relation(schema, n, seed=0):
    rng = random.Random(seed)
    return Relation(
        schema, [tuple(rng.randrange(64) for _ in range(5)) for _ in range(n)]
    )


def make_table(schema, n=600, seed=0, compressed=True, secondary_on=(),
               block_size=512):
    rel = make_relation(schema, n, seed)
    disk = SimulatedDisk(block_size=block_size)
    table = Table.from_relation(
        "t", rel, disk, compressed=compressed, secondary_on=secondary_on
    )
    return rel, table


def block_holding(table, t):
    """The tuples of the block the storage directory places ``t`` in."""
    storage = table.storage
    position = storage.block_of_ordinal(table.schema.mapper.phi(t))
    return storage.read_block(position)


def reference_select(rel, predicates):
    bound = [p.bind(rel.schema) for p in predicates]
    return sorted(
        (t for t in rel if all(lo <= t[pos] <= hi for pos, lo, hi in bound)),
        key=rel.schema.mapper.phi,
    )


class TestSelect:
    def test_leading_attribute_uses_primary_index(self, schema):
        rel, table = make_table(schema, secondary_on=["a2"])
        q = RangeQuery.between("a0", 10, 20)
        result = table.select(q)
        assert result.access_path == "primary"
        assert sorted(result.tuples, key=schema.mapper.phi) == reference_select(
            rel, q.predicates
        )

    def test_primary_path_reads_fraction_of_blocks(self, schema):
        _, table = make_table(schema, n=2000)
        result = table.select(RangeQuery.between("a0", 0, 15))
        # a0 in [0,16) is a quarter of a uniform relation
        assert result.blocks_read < table.num_blocks * 0.5

    def test_secondary_index_path(self, schema):
        rel, table = make_table(schema, secondary_on=["a3"])
        q = RangeQuery.between("a3", 5, 9)
        result = table.select(q)
        assert result.access_path == "secondary:a3"
        assert sorted(result.tuples, key=schema.mapper.phi) == reference_select(
            rel, q.predicates
        )

    def test_scan_path_when_no_index_applies(self, schema):
        rel, table = make_table(schema)
        q = RangeQuery.between("a4", 0, 10)
        result = table.select(q)
        assert result.access_path == "scan"
        assert result.blocks_read == table.num_blocks
        assert sorted(result.tuples, key=schema.mapper.phi) == reference_select(
            rel, q.predicates
        )

    def test_conjunction_picks_cheapest_secondary(self, schema):
        rel, table = make_table(schema, secondary_on=["a2", "a3"])
        q = RangeQuery(
            [RangePredicate("a2", 0, 63), RangePredicate("a3", 7, 7)]
        )
        result = table.select(q)
        assert result.access_path == "secondary:a3"
        assert sorted(result.tuples, key=schema.mapper.phi) == reference_select(
            rel, q.predicates
        )

    def test_empty_predicate_list_scans_everything(self, schema):
        rel, table = make_table(schema, n=100)
        result = table.select(RangeQuery([]))
        assert result.cardinality == 100
        assert result.access_path == "scan"

    def test_equality_query(self, schema):
        rel, table = make_table(schema, secondary_on=["a4"])
        q = RangeQuery.equals("a4", 17)
        result = table.select(q)
        assert all(t[4] == 17 for t in result.tuples)
        assert result.cardinality == sum(1 for t in rel if t[4] == 17)

    def test_result_statistics_consistent(self, schema):
        _, table = make_table(schema, secondary_on=["a1"])
        result = table.select(RangeQuery.between("a1", 0, 5))
        assert result.blocks_read == len(result.candidate_blocks)
        assert result.tuples_examined >= result.cardinality
        assert result.io_ms > 0
        assert 0 <= result.selectivity <= 1

    def test_uncompressed_table_answers_identically(self, schema):
        rel, coded = make_table(schema, seed=7, secondary_on=["a2"])
        _, heap = make_table(
            schema, seed=7, compressed=False, secondary_on=["a2"]
        )
        q = RangeQuery.between("a2", 20, 40)
        r_coded = coded.select(q)
        r_heap = heap.select(q)
        assert sorted(r_coded.tuples) == sorted(r_heap.tuples)

    def test_compressed_reads_fewer_blocks_than_heap(self, schema):
        _, coded = make_table(schema, n=3000, seed=8, secondary_on=["a2"])
        _, heap = make_table(
            schema, n=3000, seed=8, compressed=False, secondary_on=["a2"]
        )
        q = RangeQuery.between("a2", 0, 63)
        assert coded.select(q).blocks_read < heap.select(q).blocks_read


class TestMutations:
    def test_insert_then_visible_to_queries(self, schema):
        _, table = make_table(schema, n=200, secondary_on=["a3"])
        table.insert((1, 2, 3, 4, 5))
        result = table.select(RangeQuery.equals("a3", 4))
        assert (1, 2, 3, 4, 5) in result.tuples

    def test_insert_maintains_primary_index(self, schema):
        _, table = make_table(schema, n=200)
        table.insert((0, 0, 0, 0, 0))
        assert (0, 0, 0, 0, 0) in block_holding(table, (0, 0, 0, 0, 0))

    def test_insert_into_empty_table(self, schema):
        disk = SimulatedDisk(block_size=512)
        table = Table.from_relation("t", Relation(schema), disk,
                                    secondary_on=["a1"])
        table.insert((9, 9, 9, 9, 9))
        assert table.num_tuples == 1
        result = table.select(RangeQuery.equals("a1", 9))
        assert result.tuples == [(9, 9, 9, 9, 9)]

    def test_many_inserts_with_splits_keep_indices_correct(self, schema):
        _, table = make_table(schema, n=100, block_size=128,
                              secondary_on=["a2"])
        rng = random.Random(21)
        inserted = [tuple(rng.randrange(64) for _ in range(5))
                    for _ in range(300)]
        for t in inserted:
            table.insert(t)
        # primary: every inserted tuple locatable
        for t in inserted[::17]:
            assert t in block_holding(table, t)
        # secondary: value lookup finds them
        for t in inserted[::23]:
            blocks = table.secondary_indices["a2"].lookup(t[2])
            assert any(
                t in table.storage.read_block_id(b) for b in blocks
            )
        entries = list(table.storage.block_directory)
        assert len(entries) == table.num_blocks
        assert all(a[2] <= b[1] for a, b in zip(entries, entries[1:]))

    def test_delete_removes_from_queries(self, schema):
        rel, table = make_table(schema, n=300, secondary_on=["a3"])
        victim = rel.sorted_by_phi()[150]
        assert table.delete(victim)
        result = table.select(RangeQuery.equals("a3", victim[3]))
        expected = sorted(
            (t for t in rel if t[3] == victim[3]), key=schema.mapper.phi
        )
        expected.remove(victim)
        assert sorted(result.tuples, key=schema.mapper.phi) == expected

    def test_delete_missing_returns_false(self, schema):
        _, table = make_table(schema, n=20, seed=9)
        missing = (63, 62, 61, 60, 59)
        assert not table.delete(missing)

    def test_delete_everything_then_empty(self, schema):
        rel, table = make_table(schema, n=80, seed=10, secondary_on=["a1"])
        for t in rel.sorted_by_phi():
            assert table.delete(t)
        assert table.num_tuples == 0
        assert table.num_blocks == 0
        assert list(table.storage.block_directory) == []
        assert table.select(RangeQuery([])).cardinality == 0

    def test_update_is_delete_plus_insert(self, schema):
        rel, table = make_table(schema, n=100, seed=11)
        old = rel.sorted_by_phi()[50]
        new = (5, 5, 5, 5, 5)
        assert table.update(old, new)
        tuples = list(table.storage.scan())
        assert new in tuples
        count_old = sum(1 for t in rel if t == old)
        assert tuples.count(old) == count_old - 1

    def test_update_missing_returns_false(self, schema):
        _, table = make_table(schema, n=10, seed=12)
        assert not table.update((63, 63, 63, 63, 0), (1, 1, 1, 1, 1))

    def test_heap_table_is_read_only(self, schema):
        _, table = make_table(schema, compressed=False)
        with pytest.raises(QueryError):
            table.insert((1, 1, 1, 1, 1))
        with pytest.raises(QueryError):
            table.delete((1, 1, 1, 1, 1))


class TestOneBlockRewrite:
    """Every mutation is one span choice over one guarded read per block."""

    def durable_mvcc_table(self, schema, tmp_path, **kwargs):
        rel = make_relation(schema, 300, seed=3)
        table = Table.from_relation(
            "t", rel, SimulatedDisk(block_size=256),
            durable_path=str(tmp_path / "t.wal"), wal_sync=False, **kwargs
        )
        table.enable_mvcc()
        return rel, table

    def test_absent_delete_inside_a_block_changes_nothing(
        self, schema, tmp_path
    ):
        rel, table = self.durable_mvcc_table(schema, tmp_path)
        storage, mapper = table.storage, schema.mapper
        first, last = storage.block_range(1)
        stored = set(storage.read_block_ordinals(1))
        absent = next(o for o in range(first, last) if o not in stored)
        assert table.wal.clean_on_disk
        log_bytes = (tmp_path / "t.wal").read_bytes()
        csn, stashed = table.mvcc.csn, table.mvcc.stats.stashed
        assert not table.delete(mapper.phi_inverse(absent))
        assert table.mvcc.csn == csn
        assert table.mvcc.stats.stashed == stashed
        assert table.wal.clean_on_disk
        assert (tmp_path / "t.wal").read_bytes() == log_bytes

    @pytest.mark.parametrize("op", ["insert", "delete"])
    def test_mutation_reads_its_block_once(self, schema, tmp_path, op):
        rel, table = self.durable_mvcc_table(
            schema, tmp_path, secondary_on=["a2"], tuple_index=True
        )
        victim = next(iter(rel))
        disk = table.storage._disk
        disk.stats.reset()
        if op == "insert":
            table.insert(victim)
        else:
            assert table.delete(victim)
        assert disk.stats.blocks_read == 1
        assert table.mvcc.stats.stashed == 1
        table.storage.verify_directory()


class TestConstruction:
    def test_empty_name_rejected(self, schema):
        disk = SimulatedDisk(block_size=512)
        with pytest.raises(QueryError):
            Table.from_relation("", Relation(schema), disk)

    def test_codec_with_heap_rejected(self, schema):
        from repro.core.codec import BlockCodec

        disk = SimulatedDisk(block_size=512)
        with pytest.raises(QueryError):
            Table.from_relation(
                "t",
                Relation(schema),
                disk,
                compressed=False,
                codec=BlockCodec(schema.domain_sizes),
            )

    def test_create_secondary_index_idempotent(self, schema):
        _, table = make_table(schema, n=50)
        a = table.create_secondary_index("a2")
        b = table.create_secondary_index("a2")
        assert a is b
