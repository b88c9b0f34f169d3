"""Long runs of one tuple: blocks that share an ordinal at a boundary.

A run of one tuple longer than a block holds, or one that a split cuts,
leaves ``last[i] == first[i + 1]``; a split of a block made only of that
tuple leaves two blocks with the same first ordinal.  Every read must
still find every copy: the live select, the snapshot select, point
probes, aggregates and ``repro query``, against a brute-force oracle;
and such a directory must survive a clean reopen and crash recovery.
A block a run straddles into must also be repairable from the
write-ahead log alone, online and in a container.
"""

import random
from collections import Counter

import pytest

from repro.cli import main
from repro.core.codec import BlockCodec
from repro.db.aggregates import aggregate
from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.io.format import AVQFileReader, write_avq_file
from repro.io.scrub import fsck_container
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector, FaultyDisk
from repro.storage.wal import WriteAheadLog

SIZES = (16, 16, 16)
SCHEMA = Schema(
    [
        Attribute(f"a{i}", IntegerRangeDomain(0, n - 1))
        for i, n in enumerate(SIZES)
    ]
)
HEAVY = (5, 0, 0)
QUERIES = [
    RangeQuery.equals("a0", 5),
    RangeQuery.between("a0", 4, 6),
    RangeQuery.between("a0", 5, 15),
    RangeQuery.between("a1", 0, 0),
    RangeQuery([]),
]


def random_rows(n=200, seed=0):
    rng = random.Random(seed)
    return [tuple(rng.randrange(n) for n in SIZES) for _ in range(n)]


def build(rows, *, block_size=128, codec=None, compressed=True, mvcc=True):
    table = Table.from_relation(
        "t",
        Relation(SCHEMA, rows),
        SimulatedDisk(block_size=block_size),
        codec=codec,
        compressed=compressed,
    )
    if mvcc:
        table.enable_mvcc()
    return table


def oracle(rows, query):
    bound = [p.bind(SCHEMA) for p in query.predicates]
    return sorted(
        (r for r in rows if all(lo <= r[pos] <= hi for pos, lo, hi in bound)),
        key=SCHEMA.mapper.phi,
    )


def straddles(table):
    entries = list(table._directory())
    return [a[0] for a, b in zip(entries, entries[1:]) if a[2] == b[1]]


def assert_directory_matches_blocks(table):
    """Each entry's first, last and count are its block's; the entries
    are phi-clustered, sharing an ordinal only at a boundary."""
    storage = table.storage
    entries = list(storage.block_directory)
    for position, (_, first, last, count) in enumerate(entries):
        ordinals = storage.read_block_ordinals(position)
        assert (ordinals[0], ordinals[-1], len(ordinals)) == (
            first, last, count,
        )
    assert all(a[2] <= b[1] for a, b in zip(entries, entries[1:]))
    assert sum(e[3] for e in entries) == table.num_tuples


def assert_reads_agree(table, rows):
    with table.read_snapshot() as snap:
        for query in QUERIES:
            live = table.select(query)
            got = snap.select(query)
            assert live.tuples == oracle(rows, query)
            assert (
                got.tuples,
                got.access_path,
                got.candidate_blocks,
                got.blocks_read,
                got.tuples_examined,
            ) == (
                live.tuples,
                live.access_path,
                live.candidate_blocks,
                live.blocks_read,
                live.tuples_examined,
            )


class TestInsertedRuns:
    def test_live_select_reads_a_straddling_block(self):
        """Once a run of HEAVY straddles a boundary, the block ending
        with it must be read by every leading range starting at it."""
        rows = random_rows()
        table = build(rows)
        for _ in range(130):
            table.insert(HEAVY)
            rows.append(HEAVY)
            if straddles(table):
                break
        assert straddles(table)
        assert_reads_agree(table, rows)

    def test_split_of_one_tuple_block_keeps_storage_and_reads(self):
        """A block made only of HEAVY splits into two blocks with the
        same first ordinal; nothing raises and every read agrees."""
        rows = random_rows()
        table = build(rows)
        heavy = SCHEMA.mapper.phi(HEAVY)
        for i in range(300):
            table.insert(HEAVY)
            rows.append(HEAVY)
            firsts = list(table.storage.block_directory.firsts)
            if firsts.count(heavy) > 1:
                break
        assert firsts.count(heavy) > 1
        assert_directory_matches_blocks(table)
        assert_reads_agree(table, rows)
        assert table.contains(HEAVY)
        assert aggregate(table, "count", None, QUERIES[0]).value == len(
            oracle(rows, QUERIES[0])
        )
        for _ in range(i + 1):
            assert table.delete(HEAVY)
            rows.remove(HEAVY)
        assert_directory_matches_blocks(table)
        assert Counter(table.storage.scan()) == Counter(rows)
        assert_reads_agree(table, rows)

    def test_from_relation_on_one_repeated_tuple(self):
        rows = [HEAVY] * 300
        table = build(rows)
        assert table.num_blocks > 1
        assert_directory_matches_blocks(table)
        assert_reads_agree(table, rows)
        assert table.contains(HEAVY)
        assert not table.contains((5, 0, 1))
        assert aggregate(table, "count", None, QUERIES[0]).value == 300


def probe_tables():
    """Vector, scalar and heap tables over rows with straddling runs."""
    rows = random_rows(seed=3) + [HEAVY] * 150 + [(9, 9, 9)] * 70
    return rows, {
        "vector": build(rows),
        "scalar": build(rows, codec=BlockCodec(SIZES, vectorized=False)),
        "heap": build(rows, compressed=False, mvcc=False),
    }


class TestProbeParity:
    @pytest.mark.parametrize("kind", ["vector", "scalar", "heap"])
    def test_contains_matches_the_oracle(self, kind):
        rows, tables = probe_tables()
        table = tables[kind]
        assert straddles(table)
        stored = set(rows)
        probes = [
            (a, b, c) for a in range(16) for b in (0, 9) for c in (0, 9, 15)
        ]
        snap = table.read_snapshot() if table.mvcc is not None else None
        try:
            for t in probes:
                assert table.contains(t) == (t in stored)
                if snap is not None:
                    assert snap.contains(t) == (t in stored)
        finally:
            if snap is not None:
                snap.close()

    @pytest.mark.parametrize("kind", ["vector", "scalar", "heap"])
    def test_a_probe_reads_at_most_one_block(self, kind):
        rows, tables = probe_tables()
        table = tables[kind]
        stats = table.storage._disk.stats
        lowest = min(rows, key=SCHEMA.mapper.phi)
        below = SCHEMA.mapper.phi_inverse(SCHEMA.mapper.phi(lowest) - 1)
        before = stats.blocks_read
        assert not table.contains(below)  # below every block's range
        assert stats.blocks_read == before
        assert table.contains(HEAVY)
        assert stats.blocks_read == before + 1


class TestDurableDirectory:
    """A directory whose run straddles a boundary is a valid one: a
    clean reopen adopts it and recovery rebuilds a verifiable file."""

    def durable(self, tmp_path):
        disk = SimulatedDisk(block_size=128)
        wal = str(tmp_path / "t.wal")
        table = Table.from_relation(
            "t", Relation(SCHEMA, [HEAVY] * 300), disk, durable_path=wal
        )
        assert straddles(table)
        return disk, wal, table

    def test_clean_close_reopens(self, tmp_path):
        disk, wal, table = self.durable(tmp_path)
        table.close()
        reopened = Table.open("t", disk, wal)
        assert reopened.last_recovery.clean
        reopened.storage.verify_directory()
        assert reopened.storage.block_directory == (
            table.storage.block_directory
        )
        assert aggregate(reopened, "count", None, QUERIES[0]).value == 300

    def test_crash_recovery_rebuilds_a_verifiable_file(self, tmp_path):
        disk, wal, table = self.durable(tmp_path)
        table.insert(HEAVY)
        reopened = Table.open("t", disk, wal)  # no close: a crash
        assert reopened.last_recovery.blocks_rebuilt > 1
        reopened.storage.verify_directory()
        assert reopened.select(QUERIES[0]).tuples == [HEAVY] * 301
        rebuilt = AVQFile.from_ordinals(
            SCHEMA,
            SimulatedDisk(block_size=128),
            [SCHEMA.mapper.phi(HEAVY)] * 300,
        )
        rebuilt.verify_directory()


class TestWalRepair:
    """The log's committed image holds every copy of a run; each block
    takes its own share of it, so repair is byte-identical."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["heavy", "mixed"])
    def test_every_block_repairs_from_the_wal_alone(self, tmp_path, mixed):
        rows = [HEAVY] * 300
        if mixed:
            rows += random_rows(seed=3) + [(9, 9, 9)] * 70
        disk = FaultyDisk(block_size=128, injector=FaultInjector(seed=5))
        table = Table.from_relation(
            "t",
            Relation(SCHEMA, rows),
            disk,
            durable_path=str(tmp_path / "t.wal"),
            degraded_reads="repair",
        )
        assert table.tuple_ordinal_index is None
        assert straddles(table)
        ids = list(table.storage.block_ids)
        originals = [disk.read_block(bid) for bid in ids]
        for position, bid in enumerate(ids):
            disk.rot_block(bid)
            outcome = table.repair_block(position)
            assert (outcome.source, outcome.crc_verified) == ("wal", True)
            assert disk.read_block(bid) == originals[position]
        for bid in ids:
            disk.rot_block(bid)
        for query in QUERIES:
            assert table.select(query).tuples == oracle(rows, query)
        assert [disk.read_block(bid) for bid in ids] == originals


def straddling_container(tmp_path):
    rows = random_rows() + [HEAVY] * 150
    path = str(tmp_path / "t.avq")
    write_avq_file(path, Relation(SCHEMA, rows), block_size=128)
    return rows, path


class TestContainerReader:
    def test_reader_cover_contains_the_exact_cover(self, tmp_path):
        _, path = straddling_container(tmp_path)
        w0 = SCHEMA.mapper.weights[0]
        lo, hi = 5 * w0, 6 * w0 - 1
        with AVQFileReader(path) as reader:
            ranges = []
            for position in range(reader.num_blocks):
                block = reader.read_block(position)
                ranges.append(
                    (SCHEMA.mapper.phi(block[0]), SCHEMA.mapper.phi(block[-1]))
                )
            assert any(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            exact = [
                p for p, (first, last) in enumerate(ranges)
                if first <= hi and last >= lo
            ]
            cover = list(reader.block_directory.cover(lo, hi))
            assert set(exact) <= set(cover)
            assert cover[0] >= exact[0] - 1

    def test_fsck_repairs_every_block_from_the_wal(self, tmp_path):
        """Including the blocks whose first ordinal is HEAVY, which a
        run straddles into."""
        rows, path = straddling_container(tmp_path)
        wal = str(tmp_path / "t.wal")
        with WriteAheadLog.create(wal, SCHEMA, block_size=128) as log:
            log.checkpoint(Relation(SCHEMA, rows).phi_ordinals())
        pristine = open(path, "rb").read()
        heavy = SCHEMA.mapper.phi(HEAVY)
        with AVQFileReader(path) as reader:
            offsets = [e.offset for e in reader._entries]
            starts = reader.block_directory.firsts
        assert heavy in starts[1:]
        for position, offset in enumerate(offsets):
            damaged = bytearray(pristine)
            damaged[offset + 3] ^= 0x08
            open(path, "wb").write(bytes(damaged))
            report = fsck_container(path, repair=True, wal_path=wal)
            assert report.repaired == [position]
            assert open(path, "rb").read() == pristine

    def test_query_counts_every_copy(self, tmp_path, capsys):
        rows, path = straddling_container(tmp_path)
        expected = len(oracle(rows, QUERIES[0]))
        assert expected == 160
        argv = ["query", path, "--attr", "a0", "--between", "5", "5"]
        assert main(argv) == 0
        assert f"-- {expected} matching rows" in capsys.readouterr().out
