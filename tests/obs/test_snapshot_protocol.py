"""The StatsSnapshot protocol across all five legacy stats classes.

One test pins the key set of every ``as_dict()``: these keys are read
by exporters and scripts, so adding a field is fine but renaming or
dropping one must trip a test.
"""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.snapshot import StatsSnapshot, publish, snapshot_dataclass
from repro.storage.buffer import BufferStats
from repro.storage.disk import DiskStats
from repro.storage.faults import FaultStats
from repro.storage.packer import PackStats
from repro.storage.wal import WALStats

#: Every snapshot implementation and its promised key set.
EXPECTED_KEYS = {
    BufferStats: {
        "hits", "misses", "evictions", "hit_rate",
    },
    DiskStats: {
        "blocks_read", "blocks_written", "elapsed_ms",
        "read_retries", "bytes_read", "bytes_written",
    },
    WALStats: {
        "records_appended", "bytes_durable", "forces",
        "begins", "commits", "aborts", "checkpoints",
    },
    FaultStats: {
        "writes_seen", "reads_seen", "torn_writes", "dropped_writes",
        "read_errors", "crashes", "transient_faults", "bits_flipped",
        "stalled_reads",
    },
    PackStats: {
        "num_blocks", "num_tuples", "payload_bytes", "block_size",
        "total_bytes", "slack_bytes", "utilisation", "tuples_per_block",
    },
}


def make(cls):
    if cls is PackStats:  # frozen, no defaults
        return PackStats(
            num_blocks=4, num_tuples=100, payload_bytes=3000,
            block_size=1024,
        )
    return cls()


@pytest.mark.parametrize(
    "cls", sorted(EXPECTED_KEYS, key=lambda c: c.__name__)
)
class TestProtocol:
    def test_key_stability(self, cls):
        assert set(make(cls).as_dict()) == EXPECTED_KEYS[cls]

    def test_satisfies_protocol(self, cls):
        assert isinstance(make(cls), StatsSnapshot)

    def test_values_are_numeric_not_bool(self, cls):
        for key, value in make(cls).as_dict().items():
            assert isinstance(value, (int, float)), key
            assert not isinstance(value, bool), key

    def test_publish_as_gauges(self, cls):
        reg = MetricsRegistry()
        stats = make(cls)
        prefix = cls.__name__.lower()
        publish(reg, prefix, stats)
        for key, value in stats.as_dict().items():
            assert reg.value(f"{prefix}.{key}") == pytest.approx(value)


class TestResets:
    @pytest.mark.parametrize(
        "cls", [BufferStats, DiskStats, WALStats, FaultStats]
    )
    def test_mutable_classes_reset(self, cls):
        stats = cls()
        # Drive every dataclass field nonzero, then reset.
        for field_name in vars(stats):
            setattr(stats, field_name, 3)
        stats.reset()
        survivors = {
            key for key, value in stats.as_dict().items() if value
        }
        # BufferStats deliberately keeps lifetime eviction tallies.
        if cls is BufferStats:
            assert survivors == {"evictions"}
        else:
            assert survivors == set()

    def test_packstats_is_frozen_snapshot(self):
        stats = make(PackStats)
        assert not hasattr(stats, "reset")
        with pytest.raises(AttributeError):
            stats.num_blocks = 9


class TestHitRateZeroDivision:
    def test_fresh_buffer_rates_are_zero(self):
        stats = BufferStats()
        assert stats.hit_rate == 0.0
        assert stats.as_dict()["hit_rate"] == 0.0

    def test_empty_pack_rates_are_zero(self):
        stats = PackStats(
            num_blocks=0, num_tuples=0, payload_bytes=0, block_size=1024
        )
        assert stats.utilisation == 0.0
        assert stats.tuples_per_block == 0.0


class TestSnapshotDataclassGuards:
    def test_non_dataclass_rejected(self):
        with pytest.raises(ObservabilityError):
            snapshot_dataclass(object())

    def test_dataclass_type_rejected(self):
        with pytest.raises(ObservabilityError):
            snapshot_dataclass(DiskStats)

    def test_non_numeric_field_rejected(self):
        from dataclasses import dataclass

        @dataclass
        class Bad:
            label: str = "x"

        with pytest.raises(ObservabilityError):
            snapshot_dataclass(Bad())

    def test_bool_field_rejected(self):
        from dataclasses import dataclass

        @dataclass
        class Bad:
            flag: bool = True

        with pytest.raises(ObservabilityError):
            snapshot_dataclass(Bad())
