"""Tests for buffer-pool-backed tables and the compression cache effect."""

import random

import pytest

from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def schema():
    return Schema(
        [Attribute(f"a{i}", IntegerRangeDomain(0, 63)) for i in range(4)]
    )


def make_relation(schema, n=2000, seed=0):
    rng = random.Random(seed)
    return Relation(
        schema, [tuple(rng.randrange(64) for _ in range(4)) for _ in range(n)]
    )


class TestBufferedTable:
    def test_repeat_query_hits_cache(self, schema):
        rel = make_relation(schema)
        disk = SimulatedDisk(block_size=512)
        table = Table.from_relation(
            "t", rel, disk, secondary_on=["a2"], buffer_capacity=1000
        )
        q = RangeQuery.equals("a2", 17)
        first = table.select(q)
        disk.stats.reset()
        second = table.select(q)
        assert sorted(second.tuples) == sorted(first.tuples)
        assert disk.stats.blocks_read == 0  # fully served from the pool
        assert second.io_ms == 0.0
        assert table.buffer_pool.stats.hits > 0

    def test_unbuffered_table_has_no_pool(self, schema):
        rel = make_relation(schema)
        table = Table.from_relation("t", rel, SimulatedDisk(512))
        assert table.buffer_pool is None

    def test_mutation_invalidates_cached_block(self, schema):
        rel = make_relation(schema, seed=1)
        disk = SimulatedDisk(block_size=512)
        table = Table.from_relation(
            "t", rel, disk, secondary_on=["a1"], buffer_capacity=1000
        )
        new = (1, 59, 2, 3)
        # warm the cache on the target's value
        table.select(RangeQuery.equals("a1", 59))
        table.insert(new)
        result = table.select(RangeQuery.equals("a1", 59))
        assert new in result.tuples  # stale cache would miss it

    def test_delete_invalidates_cached_block(self, schema):
        rel = make_relation(schema, seed=2)
        disk = SimulatedDisk(block_size=512)
        table = Table.from_relation(
            "t", rel, disk, secondary_on=["a1"], buffer_capacity=1000
        )
        victim = next(t for t in rel if t[1] == 30)
        table.select(RangeQuery.equals("a1", 30))  # cache the block
        assert table.delete(victim)
        result = table.select(RangeQuery.equals("a1", 30))
        expected = [t for t in rel if t[1] == 30]
        expected.remove(victim)
        assert sorted(result.tuples) == sorted(expected)

    def test_compressed_table_fits_pool_where_uncompressed_thrashes(
        self, schema
    ):
        """The buffer.py promise, in its sharpest form: a pool sized
        between the compressed and uncompressed footprints keeps the
        whole compressed relation resident (every repeat access hits)
        while the uncompressed copy thrashes (LRU over a cyclic sweep
        larger than the pool hits never)."""
        rel = make_relation(schema, n=6000, seed=3)

        footprints = {}
        for compressed in (True, False):
            t = Table.from_relation(
                "t", rel, SimulatedDisk(512), compressed=compressed
            )
            footprints[compressed] = t.num_blocks
        assert footprints[True] < footprints[False]
        pool_frames = (footprints[True] + footprints[False]) // 2

        def run(compressed):
            disk = SimulatedDisk(block_size=512)
            table = Table.from_relation(
                "t", rel, disk,
                compressed=compressed,
                secondary_on=["a3"],
                buffer_capacity=pool_frames,
            )
            rng = random.Random(7)
            for _ in range(50):
                table.select(RangeQuery.equals("a3", rng.randrange(64)))
            return table.buffer_pool.stats.hit_rate

        compressed_rate = run(True)
        uncompressed_rate = run(False)
        # measured: ~0.98 vs ~0.72 — the compressed relation is fully
        # resident; the uncompressed one keeps evicting and re-reading
        assert compressed_rate > 0.9
        assert uncompressed_rate < 0.9
        assert compressed_rate > uncompressed_rate


def cached_table(rel, disk, **kwargs):
    """A pooled table whose decoded blocks live in its ordinal cache."""
    table = Table.from_relation("t", rel, disk, buffer_capacity=1000, **kwargs)
    table.enable_mvcc()
    assert table.ordinal_cache is not None
    return table


class TestDecodedCacheTable:
    """The table's decoded-block cache is its ordinal cache: every
    select reads through it, and its payload check keeps it fresh."""

    def test_repeat_lookup_skips_decode(self, schema):
        rel = make_relation(schema, seed=4)
        disk = SimulatedDisk(block_size=512)
        table = cached_table(rel, disk)
        target = next(iter(rel))
        lookup = RangeQuery.equals("a0", target[0])
        first = table.select(lookup)
        assert target in first.tuples
        assert first.profile.decoded_misses == first.blocks_read
        disk.stats.reset()
        for _ in range(5):
            again = table.select(lookup)
            assert again.tuples == first.tuples
            assert again.profile.decoded_misses == 0  # no new decode
            assert again.profile.decoded_hits == again.blocks_read
        assert disk.stats.blocks_read == 0

    def test_repeat_select_hits_decoded_cache(self, schema):
        rel = make_relation(schema, seed=5)
        disk = SimulatedDisk(block_size=512)
        table = cached_table(rel, disk, secondary_on=["a2"])
        q = RangeQuery.equals("a2", 9)
        first = table.select(q)
        assert first.access_path == "secondary:a2"
        second = table.select(q)
        assert second.tuples == first.tuples
        assert second.profile.decoded_misses == 0
        assert second.profile.decoded_hits == second.blocks_read > 0

    def test_out_of_range_probe_reads_nothing(self, schema):
        rel = Relation(schema, [(30, 30, 30, 30), (31, 31, 31, 31)])
        disk = SimulatedDisk(block_size=512)
        table = cached_table(rel, disk)
        disk.stats.reset()
        assert not table.contains((0, 0, 0, 0))
        assert not table.contains((63, 63, 63, 63))
        assert disk.stats.blocks_read == 0

    def test_mutation_invalidates_decoded_block(self, schema):
        rel = make_relation(schema, seed=6)
        disk = SimulatedDisk(block_size=512)
        table = cached_table(rel, disk)
        new = (2, 40, 5, 6)
        probe = RangeQuery(
            [RangePredicate("a0", 2, 2), RangePredicate("a1", 40, 40)]
        )
        assert new not in table.select(probe).tuples  # warms the cache
        table.insert(new)
        assert new in table.select(probe).tuples  # stale decode would miss it
        assert table.delete(new)
        assert new not in table.select(probe).tuples  # and would show it

    def test_insert_until_split_stays_consistent(self, schema):
        """After ``_split_block`` the directory, the secondary index and
        the ordinal cache must all agree with the two half-blocks.  An
        entry that survived the split would serve the pre-split decode
        of the left block's disk id."""
        rel = make_relation(schema, n=50, seed=7)
        disk = SimulatedDisk(block_size=128)  # tiny blocks: split early
        table = cached_table(rel, disk, secondary_on=["a1"])
        storage = table.storage
        rng = random.Random(8)
        inserted = []
        blocks_before = storage.num_blocks
        while storage.num_blocks <= blocks_before + 3:
            t = tuple(rng.randrange(64) for _ in range(4))
            # keep the target block's decode cached
            table.select(RangeQuery.equals("a0", t[0]))
            table.insert(t)
            inserted.append(t)
        storage.verify_directory()

        expected = sorted(
            list(rel) + inserted, key=schema.mapper.phi
        )
        assert list(storage.scan()) == expected
        # every tuple findable through the (cached) select path
        for t in inserted:
            assert t in table.select(RangeQuery.equals("a0", t[0])).tuples
        # and the secondary index still maps values to the right blocks
        for value in range(64):
            result = table.select(RangeQuery.equals("a1", value))
            assert sorted(result.tuples) == sorted(
                t for t in expected if t[1] == value
            )

    def test_compact_drops_decoded_cache(self, schema):
        rel = make_relation(schema, seed=9)
        disk = SimulatedDisk(block_size=512)
        table = cached_table(rel, disk)
        victim = next(iter(rel))
        table.select(RangeQuery([]))
        assert len(table.ordinal_cache) == table.num_blocks
        table.delete(victim)
        table.compact()
        assert len(table.ordinal_cache) == 0
        assert not table.contains(victim)
