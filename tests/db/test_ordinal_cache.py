"""The ordinal cache behind snapshot selects on vector-codec tables.

Every snapshot and reader thread of a table shares one
:class:`~repro.db.snapshot.OrdinalCache`.  An entry answers only when
its payload equals the bytes the read just fetched and verified, so
these tests pin the three things that make sharing it safe: rot is
caught by the fetch whether or not the block is cached, counters count
only decodes that ran, and entries follow the committed directory.
"""

import sys
import threading

import pytest

from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.errors import CorruptionError
from repro.obs import runtime
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector, FaultyDisk

DOMAINS = (6, 8, 10)
ROWS = [(i % 6, (i * 5) % 8, (i * 3) % 10) for i in range(120)]


def make_table(rows=ROWS, domains=DOMAINS, disk=None):
    schema = Schema(
        [
            Attribute(f"a{i}", IntegerRangeDomain(0, size - 1))
            for i, size in enumerate(domains)
        ]
    )
    table = Table.from_relation(
        "t",
        Relation(schema, list(rows)),
        disk or SimulatedDisk(block_size=64),
    )
    table.enable_mvcc()
    return table


def rotting_table():
    disk = FaultyDisk(block_size=64, injector=FaultInjector(seed=3))
    return make_table(disk=disk), disk


class TestHitsAndCounters:
    def test_repeat_select_is_served_from_the_cache(self):
        table = make_table()
        cache = table.ordinal_cache
        assert cache is not None and len(cache) == 0
        query = RangeQuery([RangePredicate("a1", 2, 5)])
        with runtime.scoped() as (registry, _):
            with table.read_snapshot() as snap:
                first = snap.select(query)
            with table.read_snapshot() as snap:
                second = snap.select(query)
        blocks = table.num_blocks
        assert first.tuples == second.tuples == table.select(query).tuples
        assert (cache.misses, cache.hits) == (blocks, blocks)
        assert len(cache) == blocks
        # Decode counters move only when a decode runs.
        assert registry.value("codec.ordinal_decodes") == blocks
        assert registry.value("codec.vector_decodes") == blocks
        assert registry.histogram("codec.decode_ms").count == blocks
        assert registry.value("snapshot.ordinal_cache_misses") == blocks
        assert registry.value("snapshot.ordinal_cache_hits") == blocks
        # Hits still fetch every block.
        assert table.mvcc.stats.reads_from_current == 2 * blocks

    def test_cached_arrays_are_read_only(self):
        table = make_table()
        with table.read_snapshot() as snap:
            snap.scan()
        block_id = table.storage.block_ids[0]
        payload = table._current_payload(block_id)
        ordinals = table.ordinal_cache.ordinals(block_id, payload)
        assert table.ordinal_cache.hits == 1
        with pytest.raises(ValueError):
            ordinals[0] = 0

    def test_a_rewritten_block_misses_and_decodes_its_new_payload(self):
        table = make_table()
        cache = table.ordinal_cache
        with table.read_snapshot() as snap:
            snap.scan()
        misses = cache.misses
        table.insert((0, 0, 1))
        with table.read_snapshot() as snap:
            assert (0, 0, 1) in snap.scan()
        assert cache.misses > misses
        assert len(cache) <= table.num_blocks

    def test_no_cache_on_scalar_tables_and_no_traffic_from_live_selects(
        self,
    ):
        wide = (1 << 16,) * 4
        scalar = make_table(
            rows=[(i, i, i, i) for i in range(20)], domains=wide
        )
        assert scalar.ordinal_cache is None
        with scalar.read_snapshot() as snap:
            assert len(snap.scan()) == 20
        table = make_table()
        table.select(RangeQuery([RangePredicate("a1", 0, 3)]))
        assert len(table.ordinal_cache) == 0

    def test_reader_threads_share_one_cache(self):
        """More readers than cores with a short switch interval: every
        answer is right and no hit or miss is lost."""
        table = make_table()
        query = RangeQuery([RangePredicate("a2", 1, 6)])
        readers, rounds = 6, 20
        results = []

        def reader():
            for _ in range(rounds):
                with table.read_snapshot() as snap:
                    results.append(snap.select(query).tuples)

        threads = [threading.Thread(target=reader) for _ in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        want = table.select(query).tuples
        assert len(results) == readers * rounds
        assert all(r == want for r in results)
        cache = table.ordinal_cache
        blocks = table.num_blocks
        assert len(cache) == blocks
        assert cache.hits + cache.misses == readers * rounds * blocks
        # A race may decode a block twice, never more than once per thread.
        assert blocks <= cache.misses <= readers * blocks


class TestRot:
    def test_block_rotted_before_its_first_read_raises_and_is_not_cached(
        self,
    ):
        table, disk = rotting_table()
        block_id = table.storage.block_ids[0]
        disk.rot_block(block_id)
        for _ in range(2):
            with table.read_snapshot() as snap:
                with pytest.raises(CorruptionError, match=str(block_id)):
                    snap.scan()
        # Block 0 is every scan's first read: nothing was decoded.
        cache = table.ordinal_cache
        assert (len(cache), cache.misses, cache.hits) == (0, 0, 0)

    def test_cached_block_rotted_at_rest_still_raises(self):
        table, disk = rotting_table()
        cache = table.ordinal_cache
        with table.read_snapshot() as snap:
            rows = snap.scan()
            assert snap.scan() == rows
        assert len(cache) == table.num_blocks
        block_id = table.storage.block_ids[1]
        disk.rot_block(block_id)
        hits = cache.hits
        with table.read_snapshot() as snap:
            with pytest.raises(CorruptionError, match=str(block_id)):
                snap.scan()
        # Only block 0, read before the rotted one, was a hit.
        assert cache.hits == hits + 1
