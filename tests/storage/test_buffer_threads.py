"""Multi-threaded hammer tests for the latched buffer pool, alone and
under the ordinal cache of concurrent snapshot selects.

Before the latch, concurrent `get` calls corrupted the OrderedDict's
LRU reordering and double-counted stats; this suite drives many threads
through every public entry point at once and then checks the accounting
invariants that only hold if every access was serialized:

* ``hits + misses == accesses`` and accesses equals the calls made;
* residency never exceeds capacity;
* every payload read is byte-identical to the disk's content
  (no torn frame entries).
"""

import threading

from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

NUM_BLOCKS = 24
THREADS = 8
ROUNDS = 400


def make_disk():
    disk = SimulatedDisk(block_size=64)
    for i in range(NUM_BLOCKS):
        disk.append_block(bytes([i]) * 16)
    return disk


def hammer(threads):
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        return run

    workers = [threading.Thread(target=wrap(fn)) for fn in threads]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    assert not errors, errors[0]


class TestBufferPoolHammer:
    def test_concurrent_gets_keep_exact_accounting(self):
        disk = make_disk()
        pool = BufferPool(disk, capacity=8)

        def worker(seed):
            def run():
                for i in range(ROUNDS):
                    block_id = (seed * 7 + i * 11) % NUM_BLOCKS
                    payload = pool.get(block_id)
                    assert payload == bytes([block_id]) * 16
            return run

        hammer([worker(seed) for seed in range(THREADS)])
        stats = pool.stats
        # Exact accounting: every one of the THREADS*ROUNDS calls was
        # counted exactly once, as either a hit or a miss.
        assert stats.accesses == THREADS * ROUNDS
        assert stats.hits + stats.misses == stats.accesses
        assert pool.resident <= pool.capacity
        # Evictions are consistent with what was admitted.
        assert stats.misses - stats.evictions == pool.resident

    def test_concurrent_gets_and_invalidations(self):
        disk = make_disk()
        pool = BufferPool(disk, capacity=8)

        def getter(seed):
            def run():
                for i in range(ROUNDS):
                    block_id = (seed + i * 5) % NUM_BLOCKS
                    assert pool.get(block_id) == bytes([block_id]) * 16
            return run

        def invalidator():
            for i in range(ROUNDS):
                pool.invalidate(i % NUM_BLOCKS)
                if i % 50 == 49:
                    pool.clear()

        hammer([getter(s) for s in range(THREADS - 1)] + [invalidator])
        assert pool.resident <= pool.capacity
        assert pool.stats.accesses == (THREADS - 1) * ROUNDS


class TestOrdinalCacheHammer:
    def test_reader_threads_share_pool_and_ordinal_cache(self):
        """Snapshot selects on many threads read through one pool and
        one ordinal cache while another thread invalidates frames:
        every answer is right and both keep exact accounting."""
        schema = Schema(
            [Attribute(f"a{i}", IntegerRangeDomain(0, 15)) for i in range(3)]
        )
        rows = [(i % 16, (i * 5) % 16, (i * 3) % 16) for i in range(300)]
        table = Table.from_relation(
            "t",
            Relation(schema, rows),
            SimulatedDisk(block_size=64),
            buffer_capacity=3,
        )
        table.enable_mvcc()
        pool, cache = table.buffer_pool, table.ordinal_cache
        assert cache is not None
        blocks = table.num_blocks
        assert blocks > pool.capacity
        query = RangeQuery([RangePredicate("a1", 2, 9)])
        want = sorted(t for t in rows if 2 <= t[1] <= 9)
        readers, rounds = THREADS - 1, 30

        def reader():
            for _ in range(rounds):
                with table.read_snapshot() as snap:
                    assert sorted(snap.select(query).tuples) == want

        def invalidator():
            for i in range(ROUNDS):
                pool.invalidate(table.storage.block_ids[i % blocks])

        hammer([reader] * readers + [invalidator])
        reads = readers * rounds * blocks
        assert pool.stats.accesses == reads
        assert pool.resident <= pool.capacity
        assert cache.hits + cache.misses == reads
        assert blocks <= cache.misses <= readers * blocks
