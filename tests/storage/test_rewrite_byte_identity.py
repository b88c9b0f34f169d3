"""No written block byte changes: seeded mutation sequences against digests.

Every Section 4.2 mutation is one block rewrite (``AVQFile.rewrite``).
These sequences cover inserts with and without splits (including at the
first and last positions), deletes (including ones that empty a block
and ones of absent tuples), runs of one tuple that straddle blocks, and
plain, durable and MVCC tables.  Each digest covers every block's
payload, the directory with its CRCs, and the disk's write sequence
(and, for the durable table, the write-ahead log's bytes).  The digests
were recorded on the storage layer before the rewrite primitive, so a
change to any written byte fails here.

Compaction rewrites in place, so its block ids may differ from the old
repack onto fresh blocks; its digest covers the payloads and the
``(first, last, count, crc)`` entries in directory order only.

Run this file as a script to print the digests of the current code.
"""

import hashlib
import json
import os
import random
import tempfile
import zlib

import pytest

from repro.core.codec import BlockCodec
from repro.db.table import Table
from repro.db.transactions import Transaction
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.avqfile import AVQFile
from repro.storage.disk import SimulatedDisk

SIZES = (16, 16, 16)
SCHEMA = Schema(
    [
        Attribute(f"a{i}", IntegerRangeDomain(0, n - 1))
        for i, n in enumerate(SIZES)
    ]
)
HEAVY = (5, 0, 0)
LOWEST = (0, 0, 0)
HIGHEST = tuple(n - 1 for n in SIZES)


class RecordingDisk(SimulatedDisk):
    """A disk that remembers every write: ``(block_id, crc32)`` in order."""

    def __init__(self, block_size):
        super().__init__(block_size)
        self.writes = []

    def _store_block(self, block_id, payload):
        self.writes.append((block_id, zlib.crc32(payload)))
        super()._store_block(block_id, payload)


def rows(n, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(s) for s in SIZES) for _ in range(n)]


def file_digest(storage, disk, *, with_ids=True, extra=b""):
    """sha256 over directory entries with CRCs, payloads and writes."""
    h = hashlib.sha256()
    for block_id, first, last, count, crc in (
        storage.directory_entries_checked()
    ):
        entry = (first, last, count, crc)
        if with_ids:
            entry = (block_id,) + entry
        h.update(repr(tuple(int(v) for v in entry)).encode())
        h.update(disk._blocks[block_id])
    if with_ids:
        h.update(repr(disk.writes).encode())
    h.update(extra)
    return h.hexdigest()


def _file(seed, *, block_size=64, n=120, codec=None):
    disk = RecordingDisk(block_size)
    codec = codec or BlockCodec(SIZES)
    f = AVQFile.build(Relation(SCHEMA, rows(n, seed)), disk, codec=codec)
    return f, disk


def scenario_file_inserts(codec=None):
    f, disk = _file(1, codec=codec)
    rng = random.Random(11)
    for i in range(60):
        if i % 15 == 0:
            f.insert(LOWEST)
        elif i % 15 == 7:
            f.insert(HIGHEST)
        else:
            f.insert(tuple(rng.randrange(s) for s in SIZES))
    return file_digest(f, disk)


def scenario_file_deletes(codec=None):
    f, disk = _file(2, codec=codec)
    rng = random.Random(12)
    stored = list(f.scan())
    # Empty the second block entirely, then scattered deletes, then
    # absent tuples inside and outside every block's range.
    for t in f.read_block(1):
        assert f.delete(t)
    for t in rng.sample(stored, 30):
        f.delete(t)
    for _ in range(20):
        f.delete(tuple(rng.randrange(s) for s in SIZES))
    f.delete(HIGHEST)
    f.delete(LOWEST)
    return file_digest(f, disk)


def scenario_file_straddle(codec=None):
    disk = RecordingDisk(128)
    f = AVQFile.build(
        Relation(SCHEMA, rows(200, 3) + [HEAVY] * 150),
        disk,
        codec=codec or BlockCodec(SIZES),
    )
    rng = random.Random(13)
    for i in range(80):
        if i % 3 == 0:
            f.delete(HEAVY)
        else:
            f.insert(HEAVY if i % 2 else tuple(rng.randrange(s) for s in SIZES))
    return file_digest(f, disk)


def scenario_file_from_empty():
    disk = RecordingDisk(64)
    f = AVQFile.build(Relation(SCHEMA, []), disk)
    rng = random.Random(14)
    for _ in range(40):
        f.insert(tuple(rng.randrange(s) for s in SIZES))
    for t in list(f.scan())[::3]:
        f.delete(t)
    return file_digest(f, disk)


def scenario_table_mvcc():
    disk = RecordingDisk(64)
    table = Table.from_relation(
        "t",
        Relation(SCHEMA, rows(150, 4) + [HEAVY] * 40),
        disk,
        secondary_on=["a1"],
        tuple_index=True,
    )
    table.create_hash_index("a2")
    table.enable_mvcc()
    rng = random.Random(15)
    held = []
    for i in range(90):
        if i % 10 == 0:
            held.append(table.read_snapshot())
        t = HEAVY if i % 7 == 0 else tuple(rng.randrange(s) for s in SIZES)
        if i % 3 == 0:
            table.delete(t)
        else:
            table.insert(t)
    for snap in held:
        snap.close()
    return file_digest(table.storage, disk)


def scenario_table_durable():
    with tempfile.TemporaryDirectory() as tmp:
        wal_path = os.path.join(tmp, "t.wal")
        disk = RecordingDisk(64)
        table = Table.from_relation(
            "t",
            Relation(SCHEMA, rows(120, 5) + [HEAVY] * 30),
            disk,
            durable_path=wal_path,
            wal_sync=False,
            buffer_capacity=8,
        )
        rng = random.Random(16)
        stored = list(table.storage.scan())
        for n_ops, outcome in ((6, "commit"), (4, "rollback"), (5, "commit")):
            txn = Transaction(table)
            for _ in range(n_ops):
                txn.insert(tuple(rng.randrange(s) for s in SIZES))
            txn.delete(stored.pop(rng.randrange(len(stored))))
            if outcome == "commit":
                txn.commit()
            else:
                txn.rollback()
        for _ in range(5):
            table.insert(HEAVY)
            table.delete(stored.pop(rng.randrange(len(stored))))
        table.close()
        with open(wal_path, "rb") as fh:
            log = fh.read()
    return file_digest(table.storage, disk, extra=log)


def scenario_compact():
    disk = RecordingDisk(128)
    table = Table.from_relation(
        "t",
        Relation(SCHEMA, rows(300, 6) + [HEAVY] * 60),
        disk,
        secondary_on=["a2"],
    )
    table.enable_mvcc()
    rng = random.Random(17)
    stored = list(table.storage.scan())
    for i in range(150):
        if i % 2:
            table.delete(stored.pop(rng.randrange(len(stored))))
        else:
            table.insert(tuple(rng.randrange(s) for s in SIZES))
    table.compact()
    return file_digest(table.storage, disk, with_ids=False)


SCENARIOS = {
    "file-inserts": scenario_file_inserts,
    "file-inserts-scalar": lambda: scenario_file_inserts(
        BlockCodec(SIZES, vectorized=False)
    ),
    "file-deletes": scenario_file_deletes,
    "file-deletes-scalar": lambda: scenario_file_deletes(
        BlockCodec(SIZES, vectorized=False)
    ),
    "file-straddle": scenario_file_straddle,
    "file-from-empty": scenario_file_from_empty,
    "table-mvcc": scenario_table_mvcc,
    "table-durable": scenario_table_durable,
    "compact": scenario_compact,
}

#: Recorded before the rewrite primitive (all block writes then came
#: from five separate mutation paths).
DIGESTS = {
    "file-inserts": "d67a059eeefe6e603f88ac9c5031d41082dcf5b9c913618c3ac1993649910251",
    "file-inserts-scalar": "d67a059eeefe6e603f88ac9c5031d41082dcf5b9c913618c3ac1993649910251",
    "file-deletes": "ca64608377ad32c7a830e707205dcea69b27a6f3ab6a5c9089587d96d26a79c9",
    "file-deletes-scalar": "ca64608377ad32c7a830e707205dcea69b27a6f3ab6a5c9089587d96d26a79c9",
    "file-straddle": "8118f6982765ac6a9b6144e1a2e7c9b16fa73af7e72c42a24b0229b730337886",
    "file-from-empty": "9172c7c9c70a5480e297817512dfbdd83779229a1a5391ea4e1882b43689fcd8",
    "table-mvcc": "df3e5ff721b737f250ce115c4dde82a061e46f418556a9bf79c9003de24da043",
    "table-durable": "09c9da2ceeda0c5a726603c32a44773e0bfaee2e86f25483c66eadb6e4412aa8",
    "compact": "d67d28fc4ea552951d684bb3a7f45567c095f1e68742c0464fe24b4580e122c4",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_written_bytes_unchanged(name):
    assert SCENARIOS[name]() == DIGESTS[name]


if __name__ == "__main__":
    print(json.dumps({name: run() for name, run in SCENARIOS.items()}, indent=4))
