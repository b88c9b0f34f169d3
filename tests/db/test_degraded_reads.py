"""Degraded-read policies and cache coherence under corruption.

End-to-end behaviour of the three per-table policies (docs/INTEGRITY.md)
at the table and query layers:

* ``"raise"`` (default) — any touch of a corrupt/quarantined block
  raises with the structured payload;
* ``"skip"`` — queries omit quarantined blocks and flag the result as
  degraded; mutations still raise;
* ``"repair"`` — corrupt blocks are rebuilt in-line from the table's
  redundant structure, transparently to the caller.

Plus the cache-coherence regression: a repair must invalidate the
buffer pool, and the ordinal cache must never serve a stale
(pre-corruption or pre-repair) decode, including after further
mutations.
"""

import sys
import threading

import pytest

from repro.db.aggregates import aggregate
from repro.db.database import Database
from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.errors import (
    QuarantinedBlockError,
    QueryError,
    StorageError,
)
from repro.relational.encoding import SchemaInferencer
from repro.relational.relation import Relation
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector, FaultyDisk


def build(policy, *, rows=220, tuple_index=True, seed=1, caches=False):
    disk = FaultyDisk(block_size=256, injector=FaultInjector(seed=seed))
    values = [(i, i % 9, i % 4) for i in range(rows)]
    schema = SchemaInferencer().infer(values, ["a", "b", "c"])
    relation = Relation.from_values(schema, values)
    table = Table.from_relation(
        "t", relation, disk,
        degraded_reads=policy, tuple_index=tuple_index,
        secondary_on=["b"], buffer_capacity=8 if caches else None,
    )
    if caches:
        table.enable_mvcc()  # adds the ordinal cache
    return table, disk


def rot_and_scrub(table, disk, position=1):
    """Corrupt one block at rest and let the scrubber quarantine it."""
    target = table.storage.block_ids[position]
    disk.rot_block(target)
    report = table.scrub()
    assert not report.clean
    return target


ALL = RangeQuery([])


class TestRaisePolicy:
    def test_scan_raises_with_structured_payload(self):
        table, disk = build("raise")
        target = rot_and_scrub(table, disk)
        with pytest.raises(QuarantinedBlockError) as ei:
            table.select(ALL)
        assert ei.value.block_id == target
        assert ei.value.detected_by == "quarantine"

    def test_unscrubbed_corruption_is_caught_at_read_time(self):
        """Without a prior scrub, the read itself trips the checksum,
        quarantines, and raises — rot never decodes into wrong rows."""
        table, disk = build("raise")
        target = table.storage.block_ids[1]
        disk.rot_block(target)
        with pytest.raises(QuarantinedBlockError):
            table.select(ALL)
        assert target in table.quarantined_blocks

    def test_untouched_blocks_remain_readable(self):
        table, disk = build("raise")
        rot_and_scrub(table, disk, position=2)
        # a clustered query over block 0's range avoids the bad block
        result = table.select(RangeQuery.between("a", 0, 5))
        assert result.cardinality == 6

    def test_aggregate_reads_through_the_guard(self):
        """Aggregates read blocks like selects: a rotted block raises
        QuarantinedBlockError and is quarantined, and a second call is
        refused before any disk read."""
        table, disk = build("raise")
        target = table.storage.block_ids[0]
        disk.rot_block(target)
        for _ in range(2):
            reads = disk.stats.blocks_read
            with pytest.raises(QuarantinedBlockError, match=str(target)):
                aggregate(table, "sum", "b", ALL)
            assert table.quarantined_blocks == [target]
        assert disk.stats.blocks_read == reads

    def test_insert_into_quarantined_block_raises(self):
        table, disk = build("raise")
        rot_and_scrub(table, disk, position=0)
        with pytest.raises(QuarantinedBlockError):
            table.insert((0, 1, 1))

    def test_heap_tables_reject_integrity_options(self):
        disk = SimulatedDisk(block_size=256)
        values = [(i, i % 9, i % 4) for i in range(50)]
        schema = SchemaInferencer().infer(values, ["a", "b", "c"])
        relation = Relation.from_values(schema, values)
        with pytest.raises(QueryError):
            Table.from_relation(
                "h", relation, disk, compressed=False,
                degraded_reads="skip",
            )
        heap = Table.from_relation("h", relation, disk, compressed=False)
        assert heap.integrity is None
        assert heap.quarantined_blocks == []

    def test_invalid_policy_rejected(self):
        with pytest.raises(StorageError):
            build("lenient")


class TestSkipPolicy:
    def test_scan_skips_and_flags_degraded(self):
        table, disk = build("skip")
        target = rot_and_scrub(table, disk)
        lost = table.storage.block_tuple_count(
            table.storage.position_of_id(target)
        )
        result = table.select(ALL)
        assert result.degraded
        assert result.skipped_blocks == [target]
        assert result.cardinality == len(table) - lost
        # accounting: the skipped block was not read
        assert result.blocks_read == table.num_blocks - 1

    def test_secondary_path_skips_too(self):
        table, disk = build("skip")
        target = rot_and_scrub(table, disk)
        result = table.select(RangeQuery.between("b", 2, 2))
        assert result.access_path.startswith("secondary")
        assert result.degraded
        assert target in result.skipped_blocks

    def test_clean_tables_are_not_degraded(self):
        table, _disk = build("skip")
        result = table.select(ALL)
        assert not result.degraded
        assert result.skipped_blocks == []
        assert result.cardinality == len(table)

    def test_mutations_still_raise_under_skip(self):
        table, disk = build("skip")
        rot_and_scrub(table, disk, position=0)
        with pytest.raises(QuarantinedBlockError):
            table.insert((0, 1, 1))
        with pytest.raises(QuarantinedBlockError):
            table.delete((0, 0, 0))

    def test_contains_raises_under_skip(self):
        """Point probes cannot 'skip': a missing answer would be a lie."""
        table, disk = build("skip")
        rot_and_scrub(table, disk, position=0)
        with pytest.raises(QuarantinedBlockError):
            table.contains((0, 0, 0))


class TestConcurrentReaders:
    def test_reader_threads_quarantine_alike(self):
        """More reader threads than cores, a short switch interval, two
        blocks rotted at rest: every snapshot select skips exactly
        those blocks, and the shared quarantine ends holding both, each
        under one reason."""
        table, disk = build("skip")
        table.enable_mvcc()
        rotted = sorted(table.storage.block_ids[p] for p in (1, 3))
        for block_id in rotted:
            disk.rot_block(block_id)
        results, errors = [], []

        def reader():
            try:
                for _ in range(5):
                    with table.read_snapshot() as snap:
                        results.append(snap.select(ALL))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(6)]
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
        assert not errors, errors[0]
        assert len(results) == 30
        want = table.select(ALL)
        assert want.skipped_blocks == rotted
        for result in results:
            assert result.skipped_blocks == rotted
            assert result.tuples == want.tuples
        assert table.quarantined_blocks == rotted
        quarantine = table.integrity.quarantine
        for block_id in rotted:
            assert str(block_id) in quarantine.reason_for(block_id)


class TestRepairPolicy:
    def test_scan_repairs_transparently(self):
        table, disk = build("repair")
        target = table.storage.block_ids[1]
        before = disk.read_block(target)
        disk.rot_block(target)
        result = table.select(ALL)  # no scrub needed: read-time repair
        assert result.cardinality == len(table)
        assert not result.degraded
        assert table.quarantined_blocks == []
        assert disk.read_block(target) == before

    def test_quarantined_block_repaired_on_touch(self):
        table, disk = build("repair")
        target = rot_and_scrub(table, disk)
        assert target in table.quarantined_blocks
        result = table.select(ALL)
        assert result.cardinality == len(table)
        assert table.quarantined_blocks == []

    def test_mutation_after_repair_round_trips(self):
        table, disk = build("repair")
        rot_and_scrub(table, disk, position=1)
        table.insert((150, 1, 1))
        assert table.contains((150, 1, 1))
        assert table.delete((150, 1, 1))
        assert table.select(ALL).cardinality == len(table)

    def test_unrepairable_under_repair_policy_still_raises(self):
        table, disk = build("repair", tuple_index=False)
        # no tuple index, no WAL; secondary on "b" alone cannot prove
        target = rot_and_scrub(table, disk)
        with pytest.raises(QuarantinedBlockError) as ei:
            table.select(ALL)
        assert ei.value.block_id == target


class TestCacheCoherence:
    def test_repair_invalidates_pool_and_decoded_cache(self):
        """Regression: mutation-after-repair with both caches hot must
        serve the repaired bytes, not a stale cached copy."""
        table, disk = build("repair", caches=True)
        storage = table.storage
        assert table.buffer_pool is not None
        assert table.ordinal_cache is not None
        # warm every cache layer
        baseline = table.select(ALL)
        assert baseline.cardinality == len(table)
        target = storage.block_ids[1]
        disk.rot_block(target)
        # the hot caches still hold the pre-rot copy; a scrub reads the
        # medium, finds the rot, and must invalidate those copies
        report = table.scrub()
        assert [f.block_id for f in report.findings] == [target]
        result = table.select(ALL)  # repairs on touch
        assert result.cardinality == len(table)
        assert table.quarantined_blocks == []
        # mutations after the repair see (and re-cache) repaired bytes
        table.insert((150, 2, 2))
        assert table.contains((150, 2, 2))
        result = table.select(ALL)
        assert result.cardinality == len(table)
        decoded = sorted(
            t for pos in range(storage.num_blocks)
            for t in storage.read_block(pos)
        )
        assert (150, 2, 2) in decoded

    def test_stale_pool_copy_is_not_trusted_after_quarantine(self):
        table, disk = build("raise", caches=True)
        table.select(ALL)  # warm
        target = rot_and_scrub(table, disk)
        # even though the pool may hold a pre-rot copy, the quarantine
        # gate refuses the block
        with pytest.raises(QuarantinedBlockError):
            table.select(ALL)
        assert target in table.quarantined_blocks


class TestDatabaseIntegration:
    def test_scrub_all_and_fsck_all(self, tmp_path):
        injector = FaultInjector(seed=9)
        disk = FaultyDisk(block_size=256, injector=injector)
        db = Database(disk=disk, wal_dir=str(tmp_path))
        rows = [(i, i % 9, i % 4) for i in range(220)]
        db.create_table("good", rows, tuple_index=True)
        db.create_table(
            "bad", [(i, i % 5, i % 3) for i in range(220)],
            tuple_index=True, degraded_reads="repair",
        )
        db.create_table("heap", rows, compressed=False)
        bad = db.table("bad")
        bid, _ = disk.rot_block(bad.storage.block_ids[0])
        reports = db.scrub_all()
        assert set(reports) == {"good", "bad"}  # heap skipped
        assert reports["good"].clean
        assert [f.block_id for f in reports["bad"].findings] == [bid]
        results = db.fsck_all(repair=True)
        assert results["bad"].healthy
        assert [o.block_id for o in results["bad"].repaired] == [bid]
        assert bad.quarantined_blocks == []

    def test_policies_thread_through_database(self):
        db = Database(block_size=256)
        rows = [(i, i % 9, i % 4) for i in range(100)]
        table = db.create_table(
            "t", rows, degraded_reads="skip", tuple_index=True
        )
        assert table.integrity.policy == "skip"
        assert table.tuple_ordinal_index is not None
        with pytest.raises(StorageError):
            db.create_table("u", rows, degraded_reads="bogus")
