"""Online integrity: scrubbing, quarantine, and index-driven repair.

Unit-level coverage of :mod:`repro.storage.integrity` — the quarantine
set, the incremental scrubber, the repair engine's proof discipline,
and the manager that ties them to a table's storage.  Table/query-level
policy behaviour lives in tests/db/test_degraded_reads.py; the
exhaustive single-bit sweep in tests/storage/test_bitrot_sweep.py.
"""

import pytest

from repro.errors import (
    CorruptionError,
    IntegrityError,
    QuarantinedBlockError,
    RepairError,
    StorageError,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector, FaultyDisk
from repro.storage.integrity import (
    DEGRADED_READ_POLICIES,
    IntegrityManager,
    QuarantineSet,
    RepairEngine,
    Scrubber,
)


def make_storage(disk=None, *, rows=200, block_size=256):
    """A small AVQ file with heavy duplication across several blocks."""
    from repro.db.table import Table

    disk = disk if disk is not None else SimulatedDisk(block_size=block_size)
    from repro.relational.encoding import SchemaInferencer
    from repro.relational.relation import Relation

    values = [(i, i % 9, i % 4) for i in range(rows)]
    schema = SchemaInferencer().infer(values, ["a", "b", "c"])
    relation = Relation.from_values(schema, values)
    table = Table.from_relation(
        "t", relation, disk, tuple_index=True, degraded_reads="repair"
    )
    return table


class TestQuarantineSet:
    def test_quarantine_and_release(self):
        q = QuarantineSet()
        q.quarantine(7, "crc32")
        assert 7 in q and len(q) == 1
        assert q.reason_for(7) == "crc32"
        assert q.block_ids() == [7]
        q.release(7)
        assert 7 not in q and len(q) == 0
        assert q.reason_for(7) is None

    def test_check_raises_with_structured_payload(self):
        q = QuarantineSet(path="/data/t.avq")
        q.quarantine(3, "decode")
        with pytest.raises(QuarantinedBlockError) as ei:
            q.check(3)
        exc = ei.value
        assert exc.block_id == 3
        assert exc.path == "/data/t.avq"
        assert exc.detected_by == "quarantine"
        assert "decode" in str(exc)
        q.check(4)  # not quarantined: no raise

    def test_release_is_idempotent(self):
        q = QuarantineSet()
        q.release(99)  # never quarantined
        assert len(q) == 0


class TestScrubber:
    def test_clean_table_scrubs_clean(self):
        table = make_storage()
        report = table.scrub()
        assert report.clean
        assert report.complete
        assert report.blocks_checked == table.num_blocks
        assert report.fsck_lines() == []

    def test_incremental_scrub_covers_all_blocks_and_wraps(self):
        table = make_storage()
        n = table.num_blocks
        assert n >= 3
        seen = 0
        report = table.scrub(max_blocks=2)
        assert report.start_position == 0
        assert not report.complete or n <= 2
        seen += report.blocks_checked
        while not report.complete:
            report = table.scrub(max_blocks=2)
            seen += report.blocks_checked
        assert seen == n
        # cursor wrapped: the next increment starts over at 0
        assert table.integrity.scrubber.cursor == 0

    def test_scrub_detects_and_quarantines_bit_rot(self):
        disk = FaultyDisk(block_size=256, injector=FaultInjector(seed=11))
        table = make_storage(disk)
        block_id, _bit = disk.rot_block(table.storage.block_ids[1])
        report = table.scrub()
        assert not report.clean
        assert [f.detected_by for f in report.findings] == ["crc32"]
        assert report.findings[0].block_id == block_id
        assert block_id in table.quarantined_blocks
        assert any("crc32" in line for line in report.fsck_lines())

    def test_scrub_backfills_missing_checksums(self):
        table = make_storage()
        storage = table.storage
        # simulate a legacy block: drop its recorded CRC
        storage._crc_by_id.pop(storage.block_ids[0])
        report = table.scrub(backfill=True)
        assert report.clean
        assert report.backfilled == 1
        assert storage.block_crc(0) is not None


class TestRepairEngine:
    def test_repairs_from_primary_index(self):
        disk = FaultyDisk(block_size=256, injector=FaultInjector(seed=3))
        table = make_storage(disk)
        target = table.storage.block_ids[2]
        before = disk.read_block(target)
        disk.rot_block(target)
        assert disk.read_block(target) != before
        table.scrub()
        pos = table.storage.position_of_id(target)
        outcome = table.repair_block(pos)
        assert outcome.source == "primary-index"
        assert outcome.crc_verified
        assert disk.read_block(target) == before  # byte-identical
        assert table.quarantined_blocks == []

    def test_unrepairable_raises_repair_error_listing_sources(self):
        table = make_storage()
        storage = table.storage
        engine = RepairEngine(storage)  # no index, no wal, no secondaries
        disk = table._disk()
        target = storage.block_ids[0]
        disk.corrupt_stored(target, 13)
        with pytest.raises(RepairError) as ei:
            engine.repair(0)
        assert ei.value.position == 0
        assert "no source could prove" in str(ei.value)

    def test_wal_source_used_when_no_tuple_index(self, tmp_path):
        from repro.db.table import Table
        from repro.relational.encoding import SchemaInferencer
        from repro.relational.relation import Relation

        disk = FaultyDisk(block_size=256, injector=FaultInjector(seed=5))
        values = [(i, i % 9, i % 4) for i in range(200)]
        schema = SchemaInferencer().infer(values, ["a", "b", "c"])
        relation = Relation.from_values(schema, values)
        table = Table.from_relation(
            "t", relation, disk,
            durable_path=str(tmp_path / "t.wal"),
            degraded_reads="repair",
        )
        assert table.tuple_ordinal_index is None
        target = table.storage.block_ids[1]
        before = disk.read_block(target)
        disk.rot_block(target)
        table.scrub()
        pos = table.storage.position_of_id(target)
        outcome = table.repair_block(pos)
        assert outcome.source == "wal"
        assert outcome.crc_verified
        assert disk.read_block(target) == before

    def test_secondary_enumeration_is_crc_gated(self):
        """Enumeration candidates are only ever accepted through the
        recorded-CRC gate — never on decode success alone."""
        from repro.db.table import Table
        from repro.relational.encoding import SchemaInferencer
        from repro.relational.relation import Relation

        disk = FaultyDisk(block_size=512, injector=FaultInjector(seed=7))
        # a full grid: every block's contents are exactly the in-range
        # cross product, so enumeration can reconstruct them
        values = [
            (a, b, c)
            for a in range(6) for b in range(3) for c in range(2)
        ]
        schema = SchemaInferencer().infer(values, ["a", "b", "c"])
        relation = Relation.from_values(schema, values)
        table = Table.from_relation(
            "t", relation, disk,
            secondary_on=["b", "c"], degraded_reads="repair",
        )
        storage = table.storage
        target = storage.block_ids[0]
        before = disk.read_block(target)
        disk.rot_block(target)
        table.scrub()
        engine = RepairEngine(
            storage, secondaries=tuple(table.secondary_indices.values())
        )
        outcome = engine.repair(0)
        assert outcome.source == "secondary-enumeration"
        assert outcome.crc_verified
        assert disk.read_block(target) == before

    def test_restore_block_rejects_wrong_ordinals(self):
        table = make_storage()
        storage = table.storage
        good = storage.read_block_ordinals(1)
        bad = [o + 1 for o in good]
        with pytest.raises(RepairError) as ei:
            storage.restore_block(1, bad, storage.encode_payload(bad))
        assert ei.value.detected_by == "directory"


class TestWalImageReuse:
    def test_ten_rotted_blocks_take_one_replay(self, tmp_path, monkeypatch):
        from repro.db.query import RangeQuery
        from repro.db.table import Table
        from repro.relational.encoding import SchemaInferencer
        from repro.relational.relation import Relation
        from repro.storage import integrity

        values = [(i, i % 9, i % 4) for i in range(600)]
        schema = SchemaInferencer().infer(values, ["a", "b", "c"])
        disk = FaultyDisk(block_size=128, injector=FaultInjector(seed=0))
        table = Table.from_relation(
            "t", Relation.from_values(schema, values), disk,
            durable_path=str(tmp_path / "t.wal"), wal_sync=False,
            degraded_reads="repair",
        )
        for i in range(5):
            table.insert((i, 1, 1))
        expected = table.select(RangeQuery([])).tuples
        assert table.num_blocks >= 10
        for block_id in table.storage.block_ids[:10]:
            disk.rot_block(block_id)
        replays = []

        def counted(path):
            replays.append(path)
            return committed(path)

        committed = integrity.committed_ordinals
        monkeypatch.setattr(integrity, "committed_ordinals", counted)
        assert table.select(RangeQuery([])).tuples == expected
        assert len(replays) == 1
        table.insert((1, 2, 3))  # the log grew: the next repair replays
        disk.rot_block(table.storage.block_ids[-1])
        table.select(RangeQuery([]))
        assert len(replays) == 2


class TestIntegrityManager:
    def test_rejects_unknown_policy(self):
        table = make_storage()
        with pytest.raises(StorageError):
            IntegrityManager(table.storage, policy="lenient")
        assert set(DEGRADED_READ_POLICIES) == {"raise", "skip", "repair"}

    def test_fsck_repairs_everything_and_reports(self):
        disk = FaultyDisk(block_size=256, injector=FaultInjector(seed=23))
        table = make_storage(disk)
        images = {
            bid: disk.read_block(bid) for bid in table.storage.block_ids
        }
        rotted = set()
        for _ in range(2):
            bid, _bit = disk.rot_block()
            rotted.add(bid)
        report = table.fsck(repair=True)
        assert report.healthy
        assert {o.block_id for o in report.repaired} == rotted
        assert report.unrepairable == []
        assert table.quarantined_blocks == []
        for bid, image in images.items():
            assert disk.read_block(bid) == image
        assert any("repaired" in line for line in report.fsck_lines())

    def test_fsck_without_sources_quarantines(self):
        disk = FaultyDisk(block_size=256, injector=FaultInjector(seed=2))
        from repro.db.table import Table
        from repro.relational.encoding import SchemaInferencer
        from repro.relational.relation import Relation

        values = [(i, i % 9, i % 4) for i in range(200)]
        schema = SchemaInferencer().infer(values, ["a", "b", "c"])
        relation = Relation.from_values(schema, values)
        table = Table.from_relation("t", relation, disk)
        # strip every repair source
        table.integrity.attach_repair_engine(RepairEngine(table.storage))
        bid, _ = disk.rot_block()
        report = table.fsck(repair=True)
        assert not report.healthy
        assert [f.block_id for f in report.unrepairable] == [bid]
        assert bid in table.quarantined_blocks
        # the quarantined block is never silently returned: a scan under
        # the default "raise" policy refuses it
        from repro.db.query import RangeQuery

        with pytest.raises(QuarantinedBlockError):
            table.select(RangeQuery([]))

    def test_integrity_errors_are_storage_errors(self):
        assert issubclass(IntegrityError, StorageError)
        for exc in (CorruptionError, QuarantinedBlockError, RepairError):
            assert issubclass(exc, IntegrityError)


class TestScrubberStandalone:
    def test_scrubber_requires_positive_increment(self):
        table = make_storage()
        scrubber = Scrubber(table.storage, quarantine=QuarantineSet())
        with pytest.raises(StorageError):
            scrubber.scrub(max_blocks=0)

    def test_reset_rewinds_the_cursor(self):
        table = make_storage()
        scrubber = table.integrity.scrubber
        table.scrub(max_blocks=1)
        assert scrubber.cursor == 1
        scrubber.reset()
        assert scrubber.cursor == 0
