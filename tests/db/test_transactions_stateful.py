"""Stateful differential test: transactions versus a multiset oracle.

Hypothesis drives random transactions — batches of inserts, deletes,
and updates that end in either commit or rollback — against a durable,
indexed, MVCC-enabled :class:`~repro.db.table.Table` whose selects read
through its ordinal cache, and
cross-checks *every* observable surface after each step:

* the storage scan against a plain :class:`collections.Counter` oracle;
* the secondary index, by comparing range selects with a filter over
  the oracle;
* the ordinal cache, by proving every entry holds the decode of its
  block's committed payload and reads through it see the same tuples
  as the raw storage (a rewritten block must never be served stale).

This is the transactional sibling of ``test_table_stateful.py``: that
file exercises raw mutations, this one the undo/commit discipline on
top — including the update partial-failure repair path.
"""

import os
import shutil
import tempfile
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
from repro.errors import DomainError
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema

DOMAINS = (4, 8, 16)

tuples_st = st.tuples(*[st.integers(0, s - 1) for s in DOMAINS])
ops_st = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "update"]), tuples_st),
    min_size=1,
    max_size=8,
)


class TransactionModel(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        schema = Schema(
            [
                Attribute("a", IntegerRangeDomain(0, DOMAINS[0] - 1)),
                Attribute("b", IntegerRangeDomain(0, DOMAINS[1] - 1)),
                Attribute("c", IntegerRangeDomain(0, DOMAINS[2] - 1)),
            ]
        )
        from repro.storage.disk import SimulatedDisk

        self.tmpdir = tempfile.mkdtemp(prefix="txnstateful-")
        # Tiny blocks force splits; the ordinal cache sits in front of
        # every select, so a stale entry would surface immediately.
        disk = SimulatedDisk(block_size=32)
        self.table = Table.from_relation(
            "t",
            Relation(schema),
            disk,
            secondary_on=["b"],
            buffer_capacity=8,
            durable_path=os.path.join(self.tmpdir, "t.wal"),
        )
        self.table.enable_mvcc()
        self.model = Counter()

    def teardown(self):
        if hasattr(self, "tmpdir"):
            shutil.rmtree(self.tmpdir, ignore_errors=True)

    def _apply(self, txn, ops, model):
        for op, t in ops:
            if op == "insert":
                txn.insert(t)
                model[t] += 1
            elif op == "delete":
                removed = txn.delete(t)
                assert removed == (model[t] > 0)
                if removed:
                    model[t] -= 1
            else:
                new = tuple((v + 1) % s for v, s in zip(t, DOMAINS))
                changed = txn.update(t, new)
                assert changed == (model[t] > 0)
                if changed:
                    model[t] -= 1
                    model[new] += 1

    @rule(ops=ops_st)
    def committed_transaction(self, ops):
        staged = self.model.copy()
        with Transaction(self.table) as txn:
            self._apply(txn, ops, staged)
        self.model = staged

    @rule(ops=ops_st)
    def rolled_back_transaction(self, ops):
        txn = Transaction(self.table)
        self._apply(txn, ops, self.model.copy())
        txn.rollback()
        # the model is unchanged: rollback must erase every operation

    @rule(ops=ops_st)
    def aborted_by_exception(self, ops):
        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with Transaction(self.table) as txn:
                self._apply(txn, ops, self.model.copy())
                raise Boom()

    @rule(t=tuples_st)
    def failed_update_repairs_itself(self, t):
        """The satellite regression, driven statefully: update whose
        insert leg fails must restore the deleted tuple."""
        with Transaction(self.table) as txn:
            bad = (DOMAINS[0], 0, 0)  # first attribute out of domain
            if self.model[t] > 0:
                with pytest.raises(DomainError):
                    txn.update(t, bad)
            else:
                assert not txn.update(t, bad)

    @rule(lo=st.integers(0, 7), width=st.integers(0, 7))
    def secondary_select_matches(self, lo, width):
        hi = min(lo + width, DOMAINS[1] - 1)
        lo = min(lo, DOMAINS[1] - 1)
        result = self.table.select(
            RangeQuery([RangePredicate("b", lo, hi)])
        )
        expected = Counter(
            {t: n for t, n in self.model.items() if lo <= t[1] <= hi and n}
        )
        assert Counter(result.tuples) == expected

    @invariant()
    def storage_matches_model(self):
        if not hasattr(self, "table"):
            return
        stored = Counter(self.table.storage.scan())
        assert stored == Counter(
            {t: n for t, n in self.model.items() if n}
        )

    @invariant()
    def ordinal_cache_is_not_stale(self):
        if not hasattr(self, "table"):
            return
        table = self.table
        cache = table.ordinal_cache
        assert cache is not None
        storage = table.storage
        committed = {
            block_id: table._current_payload(block_id)
            for block_id in storage.block_ids
        }
        # Every entry equals the decode of its block's committed payload;
        # an older payload may linger only until its next read misses.
        for block_id, (payload, ordinals) in cache._entries.items():
            assert block_id in committed  # the publish pruned the rest
            if payload == committed[block_id]:
                assert ordinals.tolist() == storage.codec.decode_ordinals(
                    payload
                )
        via_cache = Counter()
        phi_inverse = table.schema.mapper.phi_inverse
        for block_id, payload in committed.items():
            ordinals = cache.ordinals(block_id, payload)
            via_cache.update(phi_inverse(o) for o in ordinals.tolist())
        assert via_cache == Counter(
            {t: n for t, n in self.model.items() if n}
        )

    @invariant()
    def wal_has_no_dangling_transaction(self):
        if not hasattr(self, "table"):
            return
        # Between rules every transaction must be resolved — beginning
        # (and aborting) a probe txn would be refused if one dangled:
        assert self.table.wal is not None
        tid = self.table.begin_wal_transaction()
        self.table.abort_wal_transaction(tid)


TestTransactionsStateful = TransactionModel.TestCase
TestTransactionsStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
