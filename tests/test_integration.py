"""Cross-module integration tests: the whole pipeline, end to end.

These tests deliberately cross every layer boundary at once: raw
application rows -> schema inference -> domain mapping -> phi ordering ->
packing -> block coding -> simulated disk -> indices -> queries ->
mutations -> decoded rows, plus the on-disk container round trip.
"""

import random

import pytest

from repro.db.database import Database
from repro.db.query import RangeQuery
from repro.io.format import read_avq_file, write_avq_file
from repro.relational.algebra import RangePredicate, select
from repro.relational.encoding import SchemaInferencer, encode_relation
from repro.relational.relation import Relation


def make_rows(n, seed=0):
    rng = random.Random(seed)
    depts = ["management", "marketing", "personnel", "production", "research"]
    jobs = ["director", "executive", "manager", "part-time", "secretary",
            "supervisor", "worker1", "worker2"]
    return [
        (
            rng.choice(depts),
            rng.choice(jobs),
            rng.randrange(0, 45),       # years
            rng.randrange(10, 60),      # hours
            i,                          # unique employee number
        )
        for i in range(n)
    ]


COLUMNS = ["department", "job", "years", "hours", "empno"]


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database(block_size=1024)
        database.create_table(
            "emp",
            make_rows(5000),
            columns=COLUMNS,
            secondary_on=["years", "hours", "empno"],
            inferencer=SchemaInferencer(integer_padding=1000),
        )
        return database

    def test_every_row_recoverable(self, db):
        rows, _ = db.select_values("emp", "empno", 0, 10**6)
        assert sorted(r[4] for r in rows) == list(range(5000))
        original = {r[4]: r for r in make_rows(5000)}
        for row in rows:
            assert original[row[4]] == row

    def test_range_query_agrees_with_algebra(self, db):
        """The storage-aware query path and the in-memory sigma operator
        must return identical answers."""
        table = db.table("emp")
        relation = Relation(table.schema, table.storage.scan())
        for attr, lo, hi in [("years", 10, 20), ("hours", 30, 50),
                             ("department", 0, 1)]:
            pred = RangePredicate(attr, lo, hi)
            via_query = table.select(RangeQuery([pred]))
            via_algebra = select(relation, [pred])
            assert sorted(via_query.tuples) == sorted(list(via_algebra))

    def test_every_access_path_gives_same_answer(self, db):
        table = db.table("emp")
        pred = RangePredicate("hours", 25, 40)
        indexed = table.select(RangeQuery([pred]))
        assert indexed.access_path == "secondary:hours"
        # force a scan by querying through a fresh table handle sans index
        from repro.db.table import Table

        bare = Table("bare", table.schema, table.storage)
        scanned = bare.select(RangeQuery([pred]))
        assert scanned.access_path == "scan"
        assert sorted(indexed.tuples) == sorted(scanned.tuples)
        assert indexed.blocks_read <= scanned.blocks_read

    def test_mutation_churn_preserves_consistency(self, db):
        table = db.table("emp")
        rng = random.Random(99)
        survivors = {r[4]: r for r in make_rows(5000)}
        for i in range(300):
            victim_id = rng.choice(sorted(survivors))
            victim = survivors.pop(victim_id)
            assert db.delete_values("emp", victim)
        for i in range(300):
            row = ("research", "worker1", rng.randrange(0, 45),
                   rng.randrange(10, 60), 5000 + i)
            db.insert_values("emp", row)
            survivors[row[4]] = row
        rows, _ = db.select_values("emp", "empno", 0, 10**6)
        assert {r[4]: r for r in rows} == survivors
        entries = list(table.storage.block_directory)
        assert len(entries) == table.num_blocks
        assert all(a[2] <= b[1] for a, b in zip(entries, entries[1:]))


class TestContainerIntegration:
    def test_db_to_container_and_back(self, tmp_path):
        relation = encode_relation(make_rows(2000), COLUMNS)
        path = str(tmp_path / "emp.avq")
        summary = write_avq_file(path, relation, block_size=1024)
        assert summary["file_bytes"] < summary["fixed_width_bytes"]

        back = read_avq_file(path)
        assert sorted(back.decoded_rows()) == sorted(make_rows(2000))

    def test_container_feeds_a_new_database(self, tmp_path):
        relation = encode_relation(make_rows(1000), COLUMNS)
        path = str(tmp_path / "emp.avq")
        write_avq_file(path, relation, block_size=1024)
        back = read_avq_file(path)

        db = Database(block_size=1024)
        db.create_table_from_relation("emp", back, secondary_on=["years"])
        rows, stats = db.select_values("emp", "years", 20, 25)
        expected = [r for r in make_rows(1000) if 20 <= r[2] <= 25]
        assert sorted(rows, key=lambda r: r[4]) == sorted(
            expected, key=lambda r: r[4]
        )


class TestCompressionEndToEnd:
    def test_coded_database_is_smaller_and_equivalent(self):
        rows = make_rows(8000, seed=3)
        db = Database(block_size=2048)
        db.create_table("coded", rows, columns=COLUMNS)
        db.create_table("plain", rows, columns=COLUMNS, compressed=False)
        report = {r["table"]: r for r in db.storage_report()}
        assert report["coded"]["blocks"] < report["plain"]["blocks"]

        coded_rows, _ = db.select_values("coded", "years", 0, 100)
        plain_rows, _ = db.select_values("plain", "years", 0, 100)
        assert sorted(coded_rows) == sorted(plain_rows)
