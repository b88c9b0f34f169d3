"""Unit tests for the LRU buffer pool."""

import pytest

from repro.errors import StorageError
from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def disk():
    d = SimulatedDisk(block_size=64)
    for i in range(10):
        d.append_block(bytes([i]) * 8)
    d.stats.reset()
    return d


class TestBufferPool:
    def test_miss_then_hit(self, disk):
        pool = BufferPool(disk, capacity=4)
        assert pool.get(3) == bytes([3]) * 8
        assert pool.get(3) == bytes([3]) * 8
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert disk.stats.blocks_read == 1

    def test_lru_eviction_order(self, disk):
        pool = BufferPool(disk, capacity=2)
        pool.get(0)
        pool.get(1)
        pool.get(0)      # 0 is now most recent
        pool.get(2)      # evicts 1
        assert pool.stats.evictions == 1
        disk.stats.reset()
        pool.get(0)      # still resident
        assert disk.stats.blocks_read == 0
        pool.get(1)      # was evicted -> disk read
        assert disk.stats.blocks_read == 1

    def test_resident_never_exceeds_capacity(self, disk):
        pool = BufferPool(disk, capacity=3)
        for i in range(10):
            pool.get(i)
        assert pool.resident == 3

    def test_hit_rate(self, disk):
        pool = BufferPool(disk, capacity=10)
        pool.get(0)
        pool.get(0)
        pool.get(0)
        pool.get(1)
        assert pool.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_with_no_accesses(self, disk):
        assert BufferPool(disk, capacity=1).stats.hit_rate == 0.0

    def test_invalidate_forces_reread(self, disk):
        pool = BufferPool(disk, capacity=4)
        pool.get(5)
        disk.write_block(5, b"fresh")
        pool.invalidate(5)
        assert pool.get(5) == b"fresh"

    def test_clear(self, disk):
        pool = BufferPool(disk, capacity=4)
        pool.get(1)
        pool.clear()
        assert pool.resident == 0

    def test_zero_capacity_rejected(self, disk):
        with pytest.raises(StorageError):
            BufferPool(disk, capacity=0)


class TestBufferStatsAudit:
    def test_hit_rates_zero_on_fresh_stats(self):
        assert BufferStats().hit_rate == 0.0

    def test_hit_rate_zero_on_fresh_pool(self, disk):
        assert BufferPool(disk, capacity=4).stats.hit_rate == 0.0

    def test_reset_zeroes_window_but_keeps_evictions(self):
        stats = BufferStats(hits=5, misses=3, evictions=2)
        stats.reset()
        assert stats.hits == 0
        assert stats.misses == 0
        # the lifetime churn counter survives the measurement-window reset
        assert stats.evictions == 2

    def test_pool_eviction_count_survives_reset(self, disk):
        pool = BufferPool(disk, capacity=2)
        for block_id in range(6):
            pool.get(block_id)
        evicted = pool.stats.evictions
        assert evicted == 4
        pool.stats.reset()
        assert pool.stats.evictions == evicted
        assert pool.stats.accesses == 0
