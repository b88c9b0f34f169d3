"""Tests for the write-ahead log: framing, replay, and recovery.

Covers the log's own contract in isolation — record round-trips
(including ordinals wider than 64 bits), torn-tail truncation, commit
semantics, checkpoint/clean protocol, and :func:`repro.storage.wal.recover`
against a simulated disk.  The full system-level crash sweep lives in
``test_crash_consistency.py``.
"""

import random

import pytest

from repro.errors import CrashPoint, StorageError, WALError
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector
from repro.storage.wal import (
    REC_BEGIN,
    REC_CHECKPOINT,
    REC_CLEAN,
    REC_COMMIT,
    REC_DELETE,
    REC_INSERT,
    WALRecord,
    WriteAheadLog,
    read_log,
    recover,
    replay_records,
)


def make_schema(width=3, size=64):
    return Schema(
        [
            Attribute(f"a{i}", IntegerRangeDomain(0, size - 1))
            for i in range(width)
        ]
    )


def make_log(tmp_path, name="t.wal", schema=None, block_size=256):
    path = str(tmp_path / name)
    return WriteAheadLog.create(
        path, schema or make_schema(), block_size=block_size
    )


class TestFraming:
    def test_empty_log_round_trips(self, tmp_path):
        wal = make_log(tmp_path)
        wal.close()
        header, records, truncated, _ = read_log(wal.path)
        assert records == []
        assert truncated is None
        assert header.block_size == 256
        assert header.schema.names == ["a0", "a1", "a2"]

    def test_records_round_trip(self, tmp_path):
        wal = make_log(tmp_path)
        tid = wal.begin()
        wal.log_insert(tid, 12345)
        wal.log_delete(tid, 42)
        wal.commit(tid)
        wal.checkpoint([1, 2, 3])
        wal.write_clean([(0, 1, 3, 3)])
        wal.close()
        _, records, truncated, _ = read_log(wal.path)
        assert truncated is None
        assert [r.rtype for r in records] == [
            REC_BEGIN, REC_INSERT, REC_DELETE, REC_COMMIT,
            REC_CHECKPOINT, REC_CLEAN,
        ]
        assert records[1].ordinal == 12345
        assert records[2].ordinal == 42
        assert records[1].tid == tid
        assert records[4].ordinals == (1, 2, 3)
        assert records[5].directory == ((0, 1, 3, 3),)

    def test_huge_ordinals_round_trip(self, tmp_path):
        """Ordinals exceed 64 bits for wide schemas; the wire form must
        carry arbitrary precision."""
        wal = make_log(tmp_path)
        big = 2**200 + 12345678901234567890
        tid = wal.begin()
        wal.log_insert(tid, big)
        wal.commit(tid)
        wal.checkpoint([big, big + 1])
        wal.close()
        _, records, _, _ = read_log(wal.path)
        assert records[1].ordinal == big
        assert records[3].ordinals == (big, big + 1)

    def test_uncommitted_tail_is_not_durable(self, tmp_path):
        wal = make_log(tmp_path)
        tid = wal.begin()
        wal.log_insert(tid, 7)
        assert wal.pending_bytes > 0
        # Close without abort is still a flush; simulate the crash by
        # reading the file *before* any force:
        _, records, _, _ = read_log(wal.path)
        assert records == []
        wal.close()

    def test_commit_forces(self, tmp_path):
        wal = make_log(tmp_path)
        tid = wal.begin()
        wal.log_insert(tid, 7)
        wal.commit(tid)
        assert wal.pending_bytes == 0
        _, records, _, _ = read_log(wal.path)
        assert [r.rtype for r in records] == [
            REC_BEGIN, REC_INSERT, REC_COMMIT,
        ]
        wal.close()

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        wal = make_log(tmp_path)
        tid = wal.begin()
        wal.log_insert(tid, 9)
        wal.commit(tid)
        wal.close()
        data = open(wal.path, "rb").read()
        torn = str(tmp_path / "torn.wal")
        open(torn, "wb").write(data[:-3])  # tear the COMMIT frame
        _, records, truncated, valid_end = read_log(torn)
        assert truncated is not None
        assert [r.rtype for r in records] == [REC_BEGIN, REC_INSERT]
        # Re-opening repairs the tail and new appends land cleanly:
        wal2 = WriteAheadLog.open(torn)
        tid2 = wal2.begin()
        assert tid2 == tid + 1  # tids continue past the valid prefix
        wal2.commit(tid2)
        wal2.close()
        _, records2, truncated2, _ = read_log(torn)
        assert truncated2 is None
        assert [r.rtype for r in records2] == [
            REC_BEGIN, REC_INSERT, REC_BEGIN, REC_COMMIT,
        ]

    def test_header_corruption_raises(self, tmp_path):
        wal = make_log(tmp_path)
        wal.close()
        data = bytearray(open(wal.path, "rb").read())
        bad = str(tmp_path / "bad.wal")
        data[12] ^= 0xFF  # inside the JSON header
        open(bad, "wb").write(bytes(data))
        with pytest.raises((WALError, StorageError)):
            read_log(bad)

    def test_not_a_log_raises(self, tmp_path):
        path = str(tmp_path / "nope.wal")
        open(path, "wb").write(b"AVQF not a wal at all")
        with pytest.raises(StorageError):
            read_log(path)

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = make_log(tmp_path)
        wal.close()
        with pytest.raises(StorageError):
            wal.begin()
        with pytest.raises(StorageError):
            wal.force()

    def test_stats_counters(self, tmp_path):
        wal = make_log(tmp_path)
        tid = wal.begin()
        wal.log_insert(tid, 1)
        wal.commit(tid)
        tid2 = wal.begin()
        wal.abort(tid2)
        wal.checkpoint([1])
        assert wal.stats.begins == 2
        assert wal.stats.commits == 1
        assert wal.stats.aborts == 1
        assert wal.stats.checkpoints == 1
        assert wal.stats.records_appended == 6
        assert wal.stats.forces >= 2
        assert wal.stats.bytes_durable > 0
        wal.stats.reset()
        assert wal.stats.records_appended == 0
        wal.close()


class TestReplay:
    def test_committed_ops_replay_in_order(self):
        image = replay_records([
            WALRecord(rtype=REC_BEGIN, tid=1),
            WALRecord(rtype=REC_INSERT, tid=1, ordinal=5),
            WALRecord(rtype=REC_INSERT, tid=1, ordinal=3),
            WALRecord(rtype=REC_COMMIT, tid=1),
        ])
        assert image.ordinals == [3, 5]
        assert image.committed_txns == 1
        assert image.discarded_txns == 0
        assert image.replayed_ops == 2
        assert not image.clean

    def test_uncommitted_ops_are_discarded(self):
        image = replay_records([
            WALRecord(rtype=REC_BEGIN, tid=1),
            WALRecord(rtype=REC_INSERT, tid=1, ordinal=5),
        ])
        assert image.ordinals == []
        assert image.discarded_txns == 1

    def test_checkpoint_is_the_replay_base(self):
        image = replay_records([
            WALRecord(rtype=REC_BEGIN, tid=1),
            WALRecord(rtype=REC_INSERT, tid=1, ordinal=99),
            WALRecord(rtype=REC_COMMIT, tid=1),
            WALRecord(rtype=REC_CHECKPOINT, ordinals=(1, 2, 3)),
            WALRecord(rtype=REC_BEGIN, tid=2),
            WALRecord(rtype=REC_DELETE, tid=2, ordinal=2),
            WALRecord(rtype=REC_COMMIT, tid=2),
        ])
        # ordinal 99 is *inside* the checkpoint image already; only the
        # post-checkpoint delete replays on top of it.
        assert image.ordinals == [1, 3]
        assert image.replayed_ops == 1

    def test_commit_after_crash_point_counts(self):
        """A COMMIT anywhere in the log commits its ops, even ones
        logged before a checkpoint boundary in the same force."""
        image = replay_records([
            WALRecord(rtype=REC_CHECKPOINT, ordinals=()),
            WALRecord(rtype=REC_BEGIN, tid=1),
            WALRecord(rtype=REC_INSERT, tid=1, ordinal=10),
            WALRecord(rtype=REC_COMMIT, tid=1),
        ])
        assert image.ordinals == [10]

    def test_committed_delete_of_missing_tuple_raises(self):
        with pytest.raises(WALError):
            replay_records([
                WALRecord(rtype=REC_BEGIN, tid=1),
                WALRecord(rtype=REC_DELETE, tid=1, ordinal=5),
                WALRecord(rtype=REC_COMMIT, tid=1),
            ])

    def test_clean_requires_final_position(self):
        clean = WALRecord(rtype=REC_CLEAN, directory=((0, 1, 2, 2),))
        assert replay_records([clean]).clean
        not_final = replay_records([
            clean,
            WALRecord(rtype=REC_BEGIN, tid=1),
        ])
        assert not not_final.clean
        assert not_final.directory == ()

    def test_duplicate_ordinals_are_a_multiset(self):
        image = replay_records([
            WALRecord(rtype=REC_BEGIN, tid=1),
            WALRecord(rtype=REC_INSERT, tid=1, ordinal=4),
            WALRecord(rtype=REC_INSERT, tid=1, ordinal=4),
            WALRecord(rtype=REC_COMMIT, tid=1),
            WALRecord(rtype=REC_BEGIN, tid=2),
            WALRecord(rtype=REC_DELETE, tid=2, ordinal=4),
            WALRecord(rtype=REC_COMMIT, tid=2),
        ])
        assert image.ordinals == [4]


class TestRecover:
    def _populated(self, tmp_path, n=120):
        schema = make_schema()
        rng = random.Random(11)
        rel = Relation(
            schema,
            [tuple(rng.randrange(64) for _ in range(3)) for _ in range(n)],
        )
        disk = SimulatedDisk(256)
        storage = AVQFile.build(rel, disk)
        wal = make_log(tmp_path, schema=schema)
        wal.checkpoint(storage.all_ordinals())
        return schema, disk, storage, wal

    def test_recover_from_checkpoint_rebuilds(self, tmp_path):
        schema, disk, storage, wal = self._populated(tmp_path)
        expected = sorted(storage.all_ordinals())
        wal.close()
        fresh_disk = SimulatedDisk(256)
        recovered, report = recover(fresh_disk, wal.path)
        assert sorted(recovered.all_ordinals()) == expected
        assert not report.clean
        assert report.blocks_rebuilt == recovered.num_blocks > 0
        recovered.verify_directory()

    def test_recover_replays_committed_tail(self, tmp_path):
        schema, disk, storage, wal = self._populated(tmp_path)
        expected = sorted(storage.all_ordinals())
        tid = wal.begin()
        wal.log_insert(tid, 7)
        wal.log_delete(tid, expected[0])
        wal.commit(tid)
        tid2 = wal.begin()
        wal.log_insert(tid2, 9)  # never commits: discarded
        wal.close()
        fresh_disk = SimulatedDisk(256)
        recovered, report = recover(fresh_disk, wal.path)
        want = sorted(expected[1:] + [7])
        assert sorted(recovered.all_ordinals()) == want
        assert report.committed_txns == 1
        assert report.discarded_txns == 1
        assert report.replayed_ops == 2

    def test_recover_rebases_the_log(self, tmp_path):
        """After one recovery, an immediate re-open is clean."""
        schema, disk, storage, wal = self._populated(tmp_path)
        wal.close()
        disk2 = SimulatedDisk(256)
        _, report1 = recover(disk2, wal.path)
        assert not report1.clean
        written_after_first = disk2.stats.blocks_written
        storage2, report2 = recover(disk2, wal.path)
        assert report2.clean
        assert report2.blocks_rebuilt == 0
        assert disk2.stats.blocks_written == written_after_first
        storage2.verify_directory()

    def test_clean_attach_does_zero_io(self, tmp_path):
        schema, disk, storage, wal = self._populated(tmp_path)
        wal.write_clean(list(storage.block_directory))
        wal.close()
        reads = disk.stats.blocks_read
        writes = disk.stats.blocks_written
        attached, report = recover(disk, wal.path)
        assert report.clean
        assert disk.stats.blocks_read == reads
        assert disk.stats.blocks_written == writes
        assert sorted(attached.all_ordinals()) == sorted(
            storage.all_ordinals()
        )

    def test_recover_empty_log_is_an_empty_table(self, tmp_path):
        wal = make_log(tmp_path)
        wal.close()
        disk = SimulatedDisk(256)
        storage, report = recover(disk, wal.path)
        assert storage.num_tuples == 0
        assert report.tuples == 0

    def test_crash_during_force_loses_only_the_tail(self, tmp_path):
        """A torn force behaves like the unforced records never happened."""
        schema = make_schema()
        injector = FaultInjector(crash_after=1, crash_mode="torn", seed=2)
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog.create(
            path, schema, block_size=256, injector=injector
        )
        tid = wal.begin()
        wal.log_insert(tid, 31)
        with pytest.raises(CrashPoint):
            wal.commit(tid)
        injector.disarm()
        _, records, truncated, _ = read_log(path)
        # Whatever survived is a valid prefix of [BEGIN, INSERT, COMMIT]:
        kinds = [r.rtype for r in records]
        assert kinds in (
            [], [REC_BEGIN], [REC_BEGIN, REC_INSERT],
            [REC_BEGIN, REC_INSERT, REC_COMMIT],
        )
        disk = SimulatedDisk(256)
        storage, _ = recover(disk, path)
        assert sorted(storage.all_ordinals()) in ([], [31])


class TestAVQFileRecoveryHooks:
    def test_from_ordinals_round_trip(self):
        schema = make_schema()
        rng = random.Random(4)
        ordinals = sorted(
            rng.randrange(64**3) for _ in range(150)
        )
        disk = SimulatedDisk(256)
        storage = AVQFile.from_ordinals(schema, disk, ordinals)
        assert sorted(storage.all_ordinals()) == ordinals
        storage.verify_directory()

    def test_attach_requires_monotonic_directory(self):
        schema = make_schema()
        disk = SimulatedDisk(256)
        storage = AVQFile.from_ordinals(schema, disk, [1, 2, 3])
        entries = list(storage.block_directory)
        attached = AVQFile.attach(schema, disk, entries)
        assert sorted(attached.all_ordinals()) == [1, 2, 3]
        with pytest.raises(StorageError):
            AVQFile.attach(schema, disk, list(reversed(entries)) * 2)
