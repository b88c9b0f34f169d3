"""Stateful property test: a compressed, indexed Table versus a model.

Hypothesis drives random sequences of insert / delete / range-select
operations against a :class:`~repro.db.table.Table` (AVQ storage, small
blocks so splits happen constantly, primary plus secondary indices) and
cross-checks every observable against a plain multiset reference.  Any
divergence — a tuple lost by a block split, a stale index entry, a wrong
range result — fails with the shrunk operation sequence.
"""

from collections import Counter

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
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema

DOMAINS = (4, 8, 16)

tuples_st = st.tuples(*[st.integers(0, s - 1) for s in DOMAINS])


class TableModel(RuleBasedStateMachine):
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

        # Tiny blocks force frequent splits — the hard maintenance path.
        disk = SimulatedDisk(block_size=32)
        self.table = Table.from_relation(
            "t", Relation(schema), disk, secondary_on=["b", "c"]
        )
        self.model = Counter()

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

    @rule(t=tuples_st)
    def update(self, t):
        # update moves a tuple to its own "successor" when present
        new = tuple((v + 1) % s for v, s in zip(t, DOMAINS))
        changed = self.table.update(t, new)
        assert changed == (self.model[t] > 0)
        if changed:
            self.model[t] -= 1
            self.model[new] += 1

    @rule(attr=st.sampled_from(["a", "b", "c"]),
          lo=st.integers(0, 15), width=st.integers(0, 15))
    def range_select(self, attr, lo, width):
        schema = self.table.schema
        pos = schema.position(attr)
        size = DOMAINS[pos]
        lo = min(lo, size - 1)
        hi = min(lo + width, size - 1)
        result = self.table.select(
            RangeQuery([RangePredicate(attr, lo, hi)])
        )
        expected = Counter(
            {t: n for t, n in self.model.items() if lo <= t[pos] <= hi and n}
        )
        assert Counter(result.tuples) == expected

    @invariant()
    def storage_matches_model(self):
        stored = Counter(self.table.storage.scan())
        assert stored == Counter({t: n for t, n in self.model.items() if n})

    @invariant()
    def directory_tracks_blocks(self):
        table = self.table
        entries = list(table.storage.block_directory)
        assert len(entries) == table.num_blocks
        assert all(a[2] <= b[1] for a, b in zip(entries, entries[1:]))


TestTableStateful = TableModel.TestCase
TestTableStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
