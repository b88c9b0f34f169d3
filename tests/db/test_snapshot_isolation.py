"""Snapshot isolation: every reader sees one consistent committed state.

Three layers of evidence, from cheap to adversarial:

* direct tests that a snapshot is frozen across mutations, transaction
  boundaries, rollback, and compaction;
* a hypothesis stateful machine that interleaves mutations with long-
  lived snapshots and checks each one still reproduces the exact
  multiset of tuples committed when it was taken;
* a genuinely concurrent test — one writer thread, many reader threads
  over the latched store — asserting no reader ever observes a *mixed*
  version (half a mutation).  This is the regression for the serving
  layer's core promise (docs/SERVING.md).
"""

import threading
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

from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.db.transactions import Transaction
from repro.errors import CorruptionError, IntegrityError, QueryError
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector, FaultyDisk

DOMAINS = (6, 8, 10)


def make_schema():
    return Schema(
        [
            Attribute("a", IntegerRangeDomain(0, DOMAINS[0] - 1)),
            Attribute("b", IntegerRangeDomain(0, DOMAINS[1] - 1)),
            Attribute("c", IntegerRangeDomain(0, DOMAINS[2] - 1)),
        ]
    )


def make_table(rows=(), block_size=64, **kwargs):
    relation = Relation(make_schema(), [tuple(r) for r in rows])
    table = Table.from_relation(
        "t", relation, SimulatedDisk(block_size=block_size), **kwargs
    )
    table.enable_mvcc()
    return table


ROWS = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6)]


class TestSnapshotBasics:
    def test_snapshot_requires_mvcc(self, tmp_path):
        relation = Relation(make_schema(), ROWS)
        table = Table.from_relation("t", relation, SimulatedDisk())
        with pytest.raises(QueryError):
            table.read_snapshot()

    def test_snapshot_is_frozen_across_mutations(self):
        table = make_table(ROWS)
        with table.read_snapshot() as snap:
            assert Counter(snap.scan()) == Counter(ROWS)
            table.insert((5, 0, 0))
            assert table.delete((0, 1, 2))
            # The open snapshot still shows exactly the old state.
            assert Counter(snap.scan()) == Counter(ROWS)
            assert snap.num_tuples == len(ROWS)
        # A fresh snapshot shows the new state.
        with table.read_snapshot() as snap2:
            expected = Counter(ROWS) - Counter([(0, 1, 2)])
            expected[(5, 0, 0)] += 1
            assert Counter(snap2.scan()) == expected
            assert snap2.csn > 0

    def test_snapshot_select_and_contains(self):
        table = make_table(ROWS, block_size=32)  # tiny blocks -> many
        with table.read_snapshot() as snap:
            table.insert((2, 0, 0))
            result = snap.select(
                RangeQuery([RangePredicate("a", 1, 3)])
            )
            assert sorted(result.tuples) == [
                (1, 2, 3), (2, 3, 4), (3, 4, 5),
            ]
            assert result.access_path == "snapshot-directory"
            assert snap.contains((2, 3, 4))
            assert not snap.contains((2, 0, 0))  # post-snapshot insert
        live = table.select(RangeQuery([RangePredicate("a", 2, 2)]))
        assert Counter(live.tuples) == Counter([(2, 3, 4), (2, 0, 0)])

    def test_closed_snapshot_refuses_reads(self):
        table = make_table(ROWS)
        snap = table.read_snapshot()
        snap.close()
        snap.close()  # idempotent
        with pytest.raises(QueryError):
            snap.scan()

    def test_snapshot_survives_compaction(self):
        table = make_table(ROWS, block_size=32)
        for t in ROWS[:3]:
            table.delete(t)
        with table.read_snapshot() as snap:
            before = Counter(snap.scan())
            table.compact()
            # compact rewrites onto fresh blocks; the snapshot's stale
            # directory still resolves (old blocks are never reused).
            assert Counter(snap.scan()) == before
        with table.read_snapshot() as snap2:
            assert Counter(snap2.scan()) == before

    def test_rotted_block_is_neither_served_nor_stashed(self):
        relation = Relation(make_schema(), ROWS)
        disk = FaultyDisk(block_size=64, injector=FaultInjector(seed=0))
        table = Table.from_relation("t", relation, disk)
        table.enable_mvcc()
        disk.rot_block(table.storage.block_ids[0])
        with table.read_snapshot() as snap:
            with pytest.raises(CorruptionError):
                snap.scan()
        with pytest.raises(IntegrityError):
            table.delete(ROWS[0])
        # The write's copy-before-write read verified the bytes too, so
        # no rotted pre-image entered the version store.
        assert table.mvcc.version_count == 0

    def test_csn_advances_once_per_autocommit(self):
        table = make_table(ROWS)
        store = table.mvcc
        assert store.csn == 0
        table.insert((0, 0, 0))
        c1 = store.csn
        table.delete((0, 0, 0))
        c2 = store.csn
        assert c1 == 1 and c2 == 2


class TestTransactionBoundaries:
    def test_durable_transaction_publishes_at_commit(self, tmp_path):
        relation = Relation(make_schema(), ROWS)
        table = Table.from_relation(
            "t",
            relation,
            SimulatedDisk(block_size=64),
            durable_path=str(tmp_path / "t.wal"),
        )
        table.enable_mvcc()
        with table.read_snapshot() as snap:
            with Transaction(table) as txn:
                txn.insert((5, 0, 0))
                txn.delete((0, 1, 2))
                # Mid-transaction: no publish yet, the csn is unmoved
                # and the snapshot is untouched.
                assert table.mvcc.csn == snap.csn
                assert Counter(snap.scan()) == Counter(ROWS)
            assert table.mvcc.csn == snap.csn + 1
            assert Counter(snap.scan()) == Counter(ROWS)
        with table.read_snapshot() as snap2:
            expected = Counter(ROWS) - Counter([(0, 1, 2)])
            expected[(5, 0, 0)] += 1
            assert Counter(snap2.scan()) == expected

    def test_rollback_keeps_logical_state(self, tmp_path):
        relation = Relation(make_schema(), ROWS)
        table = Table.from_relation(
            "t",
            relation,
            SimulatedDisk(block_size=32),
            durable_path=str(tmp_path / "t.wal"),
        )
        table.enable_mvcc()
        with table.read_snapshot() as snap:
            txn = Transaction(table)
            for i in range(4):
                txn.insert((5, i, i))
            txn.rollback()
            # Rollback may publish (the physical layout can differ) but
            # both the snapshot and the live state read the same rows.
            assert Counter(snap.scan()) == Counter(ROWS)
        with table.read_snapshot() as snap2:
            assert Counter(snap2.scan()) == Counter(ROWS)


tuples_st = st.tuples(*[st.integers(0, s - 1) for s in DOMAINS])


class SnapshotIsolationMachine(RuleBasedStateMachine):
    """Mutations interleaved with long-lived snapshots.

    Each held snapshot remembers the exact Counter of tuples committed
    when it was taken; the invariant proves every one of them still
    reads precisely that multiset, no matter what was mutated since.
    """

    @initialize()
    def setup(self):
        self.table = make_table(ROWS, block_size=32)
        self.model = Counter(ROWS)
        self.held = []  # (snapshot, expected Counter)

    def teardown(self):
        if hasattr(self, "held"):
            for snap, _ in self.held:
                snap.close()

    @rule(t=tuples_st)
    def insert(self, t):
        self.table.insert(t)
        self.model[t] += 1

    @rule(t=tuples_st)
    def delete(self, t):
        removed = self.table.delete(t)
        assert removed == (self.model[t] > 0)
        if removed:
            self.model[t] -= 1

    @rule()
    def take_snapshot(self):
        if len(self.held) < 6:
            self.held.append(
                (self.table.read_snapshot(), self.model.copy())
            )

    @rule(index=st.integers(0, 5))
    def release_snapshot(self, index):
        if self.held:
            snap, _ = self.held.pop(index % len(self.held))
            snap.close()

    @rule()
    def compact(self):
        self.table.compact()

    @invariant()
    def every_snapshot_reads_its_own_epoch(self):
        if not hasattr(self, "held"):
            return
        for snap, expected in self.held:
            assert Counter(snap.scan()) == Counter(
                {t: n for t, n in expected.items() if n}
            )

    @invariant()
    def live_state_matches_model(self):
        if not hasattr(self, "table"):
            return
        assert Counter(self.table.storage.scan()) == Counter(
            {t: n for t, n in self.model.items() if n}
        )

    @invariant()
    def gc_holds_nothing_when_unpinned(self):
        if not hasattr(self, "table"):
            return
        store = self.table.mvcc
        if not self.held:
            # publish() pruned at the last commit boundary; anything
            # left can only be versions sealed at the current csn.
            assert store.pinned_snapshots == 0


TestSnapshotIsolationStateful = SnapshotIsolationMachine.TestCase
TestSnapshotIsolationStateful.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)


class TestConcurrentReaders:
    """The adversarial case: reader threads racing one writer thread."""

    def test_no_reader_observes_a_mixed_version(self):
        table = make_table(ROWS, block_size=32)
        store = table.mvcc

        # committed states by csn, written by the writer *before* any
        # snapshot can land on that csn (the state for csn k is recorded
        # while the publish that creates csn k+1 has not happened yet).
        states_lock = threading.Lock()
        states = {0: Counter(ROWS)}
        stop = threading.Event()
        failures = []

        def writer():
            model = Counter(ROWS)
            try:
                for i in range(120):
                    t = (i % DOMAINS[0], i % DOMAINS[1], i % DOMAINS[2])
                    if i % 3 == 2 and model[t]:
                        table.delete(t)
                        model[t] -= 1
                    else:
                        table.insert(t)
                        model[t] += 1
                    with states_lock:
                        states[store.csn] = model.copy()
            except BaseException as exc:  # pragma: no cover
                failures.append(("writer", exc))
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    with table.read_snapshot() as snap:
                        seen = Counter(snap.scan())
                        with states_lock:
                            expected = states.get(snap.csn)
                    if expected is None:
                        # The writer mutated between publish and its
                        # bookkeeping; this csn was never quiescent.
                        continue
                    expected = Counter(
                        {t: n for t, n in expected.items() if n}
                    )
                    if seen != expected:
                        failures.append(
                            ("reader", snap.csn, seen, expected)
                        )
                        return
            except BaseException as exc:  # pragma: no cover
                failures.append(("reader", exc))

        readers = [threading.Thread(target=reader) for _ in range(6)]
        writer_thread = threading.Thread(target=writer)
        for thread in readers:
            thread.start()
        writer_thread.start()
        writer_thread.join(timeout=120)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not failures, failures[0]
        assert store.pinned_snapshots == 0
        # And the final state is exactly what the writer left behind.
        with states_lock:
            final = states[max(states)]
        assert Counter(table.storage.scan()) == Counter(
            {t: n for t, n in final.items() if n}
        )
