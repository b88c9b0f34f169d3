"""Crash-consistency harness: the durability claim, tested exhaustively.

The headline test sweeps a seeded transactional workload with an
injected crash at *every* write index (data blocks and log forces alike,
no sampling) and in every destructive crash mode, then reopens the table
through recovery and compares against a model oracle:

* a transaction whose ``commit`` returned before the crash is fully
  present;
* a transaction still in flight is fully absent — except when the crash
  hit during ``commit`` itself, where either outcome is legal (the
  COMMIT record may or may not have survived the torn force);
* the rebuilt file passes ``verify_directory``.

A second battery drives the same protocol from hypothesis as a stateful
machine, and a third proves the clean-shutdown contract: recovering a
cleanly closed table is a byte-for-byte no-op on the disk and the log.
"""

import os
import random
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.db.table import Table
from repro.db.transactions import Transaction
from repro.errors import CrashPoint
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.faults import FaultInjector, FaultyDisk

WIDTH = 3
DOMAIN = 64


def make_table(tmpdir, seed=17, rows=60, block_size=64):
    """A durable table on a faulty disk; injector starts benign."""
    schema = Schema(
        [
            Attribute(f"a{i}", IntegerRangeDomain(0, DOMAIN - 1))
            for i in range(WIDTH)
        ]
    )
    rng = random.Random(seed)
    rel = Relation(
        schema,
        [
            tuple(rng.randrange(DOMAIN) for _ in range(WIDTH))
            for _ in range(rows)
        ],
    )
    injector = FaultInjector(seed=seed)
    disk = FaultyDisk(block_size, injector=injector)
    wal_path = os.path.join(str(tmpdir), "t.wal")
    table = Table.from_relation(
        "t", rel, disk, secondary_on=["a1"], durable_path=wal_path
    )
    return injector, disk, table, wal_path


class Oracle:
    """Tracks which states a post-crash recovery may legally surface.

    ``committed`` is the multiset after the last commit that *returned*.
    ``maybe`` is set only while a commit is in flight: its COMMIT record
    may or may not have reached the log before the crash, so recovery to
    either state is correct.
    """

    def __init__(self, tuples):
        self.committed = Counter(tuples)
        self.maybe = None

    def acceptable(self):
        states = [self.committed]
        if self.maybe is not None:
            states.append(self.maybe)
        return states


def scripted_workload(table, oracle, seed=23):
    """A fixed transactional workload; maintains the oracle as it goes.

    Mixes multi-operation commits, a rollback, autocommit mutations,
    enough inserts to force block splits, and a compaction — every
    mutation class the recovery protocol must survive.
    """
    rng = random.Random(seed)
    existing = sorted(oracle.committed)

    def fresh():
        return tuple(rng.randrange(DOMAIN) for _ in range(WIDTH))

    def run_txn(ops, outcome):
        txn = Transaction(table)
        current = oracle.committed.copy()
        for op, t in ops:
            if op == "insert":
                txn.insert(t)
                current[t] += 1
            else:
                if txn.delete(t):
                    current[t] -= 1
                    if not current[t]:
                        del current[t]
        if outcome == "commit":
            oracle.maybe = current
            txn.commit()
            oracle.committed = current
            oracle.maybe = None
        else:
            txn.rollback()

    # Transaction 1: a burst of inserts (splits likely).
    run_txn([("insert", fresh()) for _ in range(8)], "commit")
    # Transaction 2: deletes mixed with inserts.
    run_txn(
        [("delete", existing[i]) for i in (0, 3, 5)]
        + [("insert", fresh()) for _ in range(3)],
        "commit",
    )
    # Transaction 3: rolled back — must leave no trace.
    run_txn(
        [("insert", fresh()) for _ in range(4)]
        + [("delete", existing[7])],
        "rollback",
    )
    # Autocommit mutations: each is its own durable transaction, so a
    # crash anywhere inside leaves either the previous or the new state.
    for _ in range(3):
        t = fresh()
        oracle.maybe = oracle.committed + Counter([t])
        table.insert(t)
        oracle.committed = oracle.maybe
        oracle.maybe = None
    victim = sorted(oracle.committed)[1]
    shrunk = oracle.committed.copy()
    shrunk[victim] -= 1
    if not shrunk[victim]:
        del shrunk[victim]
    oracle.maybe = shrunk
    table.delete(victim)
    oracle.committed = shrunk
    oracle.maybe = None
    # A clean log, then a compaction: it rewrites blocks in place, so a
    # crash at any of its writes must leave a log that rebuilds.
    table.checkpoint()
    table.compact()
    # Transaction 4: one more commit after the compaction.
    run_txn([("insert", fresh()) for _ in range(2)], "commit")


def measure_workload_writes(tmp_path):
    measure_dir = tmp_path / "measure"
    measure_dir.mkdir()
    injector, disk, table, _ = make_table(measure_dir)
    oracle = Oracle(table.storage.scan())
    injector.stats.writes_seen = 0
    scripted_workload(table, oracle)
    return injector.stats.writes_seen


class TestExhaustiveCrashSweep:
    def test_crash_at_every_write_index(self, tmp_path):
        """The tentpole: no write index may break recoverability."""
        total_writes = measure_workload_writes(tmp_path)
        assert total_writes > 20  # the workload must be non-trivial
        for mode in ("torn", "drop"):
            for k in range(1, total_writes + 1):
                subdir = tmp_path / f"{mode}-{k}"
                subdir.mkdir()
                injector, disk, table, wal_path = make_table(subdir)
                oracle = Oracle(table.storage.scan())
                injector.arm(k, crash_mode=mode)
                with pytest.raises(CrashPoint):
                    scripted_workload(table, oracle)
                injector.disarm()
                recovered = Table.open(
                    "t", disk, wal_path, secondary_on=["a1"]
                )
                got = Counter(recovered.storage.scan())
                assert got in oracle.acceptable(), (
                    f"crash mode={mode} write={k}: recovered state "
                    f"matches no legal oracle state"
                )
                recovered.storage.verify_directory()
                recovered.close()

    def test_workload_without_crash_matches_oracle(self, tmp_path):
        injector, disk, table, wal_path = make_table(tmp_path)
        oracle = Oracle(table.storage.scan())
        scripted_workload(table, oracle)
        assert Counter(table.storage.scan()) == oracle.committed
        table.close()
        reopened = Table.open("t", disk, wal_path, secondary_on=["a1"])
        assert Counter(reopened.storage.scan()) == oracle.committed
        assert reopened.last_recovery.clean


class TestCleanShutdownNoOp:
    def test_reopen_after_close_is_byte_for_byte_no_op(self, tmp_path):
        injector, disk, table, wal_path = make_table(tmp_path)
        oracle = Oracle(table.storage.scan())
        scripted_workload(table, oracle)
        table.close()

        blocks_before = {
            bid: disk.read_block(bid) for bid in range(disk.num_blocks)
        }
        wal_before = open(wal_path, "rb").read()
        reads = disk.stats.blocks_read
        writes = disk.stats.blocks_written

        # Without index rebuilds, attach is pure bookkeeping:
        reopened = Table.open("t", disk, wal_path)
        report = reopened.last_recovery
        assert report.clean
        assert report.blocks_rebuilt == 0
        # Opening must neither read nor write a single data block ...
        assert disk.stats.blocks_written == writes
        assert disk.stats.blocks_read == reads
        # ... nor grow the log ...
        assert open(wal_path, "rb").read() == wal_before
        # ... nor change any block on the medium.
        after = {
            bid: disk.read_block(bid) for bid in range(disk.num_blocks)
        }
        assert after == blocks_before
        assert Counter(reopened.storage.scan()) == oracle.committed

    def test_recovery_reports_the_crash_facts(self, tmp_path):
        injector, disk, table, wal_path = make_table(tmp_path)
        with pytest.raises(CrashPoint):
            txn = Transaction(table)
            txn.insert((1, 2, 3))
            injector.arm(1, crash_mode="torn")
            txn.commit()
        injector.disarm()
        recovered = Table.open("t", disk, wal_path)
        report = recovered.last_recovery
        assert not report.clean
        assert report.records_scanned >= 1  # at least the checkpoint
        assert report.tuples == recovered.num_tuples
        assert report.blocks_rebuilt == recovered.num_blocks


ops_st = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.tuples(*[st.integers(0, DOMAIN - 1) for _ in range(WIDTH)]),
    ),
    min_size=1,
    max_size=6,
)


class CrashRecoveryMachine(RuleBasedStateMachine):
    """Interleave transactions with crashes at hypothesis-chosen writes.

    The model is the committed multiset; after every crash the table is
    reopened through recovery and must land on a legal oracle state.
    """

    @initialize(seed=st.integers(0, 2**16))
    def setup(self, seed):
        import tempfile

        self.tmpdir = tempfile.mkdtemp(prefix="crashmachine-")
        self.injector, self.disk, self.table, self.wal_path = make_table(
            self.tmpdir, seed=seed % 7 + 1, rows=30
        )
        self.committed = Counter(self.table.storage.scan())

    def _apply(self, txn, ops, current):
        for op, t in ops:
            if op == "insert":
                txn.insert(t)
                current[t] += 1
            elif txn.delete(t):
                current[t] -= 1
                if not current[t]:
                    del current[t]

    @rule(ops=ops_st)
    def committed_transaction(self, ops):
        txn = Transaction(self.table)
        current = self.committed.copy()
        self._apply(txn, ops, current)
        txn.commit()
        self.committed = current

    @rule(ops=ops_st)
    def rolled_back_transaction(self, ops):
        txn = Transaction(self.table)
        self._apply(txn, ops, self.committed.copy())
        txn.rollback()

    @rule(
        ops=ops_st,
        crash_after=st.integers(1, 10),
        mode=st.sampled_from(["torn", "drop"]),
    )
    def crash_and_recover(self, ops, crash_after, mode):
        self.injector.arm(crash_after, crash_mode=mode)
        maybe = None
        crashed = True
        try:
            txn = Transaction(self.table)
            current = self.committed.copy()
            self._apply(txn, ops, current)
            maybe = current
            txn.commit()
            # Commit returned: the crash point was never reached.
            self.committed = current
            maybe = None
            crashed = False
        except CrashPoint:
            pass
        self.injector.disarm()
        if not crashed:
            return
        self.table = Table.open(
            "t", self.disk, self.wal_path, secondary_on=["a1"]
        )
        got = Counter(self.table.storage.scan())
        acceptable = [self.committed] + (
            [maybe] if maybe is not None else []
        )
        assert got in acceptable
        self.committed = got
        self.table.storage.verify_directory()

    @invariant()
    def table_matches_model(self):
        if not hasattr(self, "table"):
            return
        assert Counter(self.table.storage.scan()) == self.committed

    def teardown(self):
        import shutil

        if hasattr(self, "tmpdir"):
            shutil.rmtree(self.tmpdir, ignore_errors=True)


TestCrashMachine = CrashRecoveryMachine.TestCase
TestCrashMachine.settings = settings(
    max_examples=15, stateful_step_count=10, deadline=None
)
