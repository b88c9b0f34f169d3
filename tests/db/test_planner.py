"""Unit tests for the one planner, through :meth:`Table.explain`.

EXPLAIN lists every applicable path with its exact ``N`` and its
Equation 5.7 price, cheapest first, and marks the path the rules pick:
the one :meth:`Table.select` takes.
"""

import random

import pytest

from repro.perf.costmodel import index_search_time_s, response_time_s
from repro.perf.machines import HP_9000_735
from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk


@pytest.fixture(scope="module")
def setup():
    # a1 gets a wide domain so that narrow ranges on it are genuinely
    # selective (an index can only beat a scan when k matching tuples
    # land in far fewer than all blocks).
    schema = Schema(
        [
            Attribute("a0", IntegerRangeDomain(0, 63)),
            Attribute("a1", IntegerRangeDomain(0, 4095)),
            Attribute("a2", IntegerRangeDomain(0, 63)),
            Attribute("a3", IntegerRangeDomain(0, 63)),
        ]
    )
    rng = random.Random(7)
    rel = Relation(
        schema,
        [
            (rng.randrange(64), rng.randrange(4096), rng.randrange(64),
             rng.randrange(64))
            for _ in range(3000)
        ],
    )
    disk = SimulatedDisk(block_size=512)
    table = Table.from_relation(
        "t", rel, disk, secondary_on=["a1", "a2"]
    )
    table.create_hash_index("a3")
    return rel, table


def paths(table, query):
    return [p.path for p in table.explain(query).plans]


def chosen(table, query):
    report = table.explain(query)
    return report.plans[report.chosen]


class TestPlanEnumeration:
    def test_scan_always_available(self, setup):
        _, table = setup
        assert paths(table, RangeQuery([])) == ["scan"]

    def test_indexed_attribute_adds_plan(self, setup):
        _, table = setup
        assert set(paths(table, RangeQuery.between("a1", 5, 9))) == {
            "scan", "secondary:a1",
        }

    def test_leading_attribute_adds_primary_plan(self, setup):
        _, table = setup
        assert set(paths(table, RangeQuery.between("a0", 0, 7))) == {
            "scan", "primary",
        }

    def test_hash_plan_only_for_equality(self, setup):
        _, table = setup
        assert "hash:a3" in paths(table, RangeQuery.equals("a3", 5))
        assert "hash:a3" not in paths(table, RangeQuery.between("a3", 5, 9))

    def test_plans_sorted_by_cost(self, setup):
        """Each plan is priced by Eq. 5.7 on its exact N, with the HP
        9000/735's t2 (a coded table); a scan reads no index."""
        _, table = setup
        report = table.explain(
            RangeQuery(
                [RangePredicate("a0", 0, 3), RangePredicate("a1", 5, 5)]
            )
        )
        assert {p.path for p in report.plans} == {
            "primary", "secondary:a1", "scan",
        }
        assert report.costs_ms == sorted(report.costs_ms)
        index_s = index_search_time_s(table.num_blocks)
        for plan, cost in zip(report.plans, report.costs_ms):
            i_s = 0.0 if plan.path == "scan" else index_s
            assert cost == pytest.approx(
                1000 * response_time_s(
                    i_s, len(plan.block_ids),
                    cpu_ms_per_block=HP_9000_735.t2_ms,
                )
            )


class TestPlanChoice:
    def test_narrow_primary_range_beats_scan(self, setup):
        _, table = setup
        assert chosen(table, RangeQuery.between("a0", 3, 4)).path == "primary"

    def test_wide_secondary_range_loses_to_scan_costing(self, setup):
        """At full selectivity the secondary index reads every block
        plus its index, so EXPLAIN prices the scan cheaper; the rules
        still choose the index, as select does."""
        _, table = setup
        query = RangeQuery.between("a1", 0, 4095)
        report = table.explain(query)
        assert report.plans[0].path == "scan"
        assert report.plans[report.chosen].path == "secondary:a1"
        assert table.select(query).access_path == "secondary:a1"

    def test_narrow_secondary_range_beats_scan(self, setup):
        _, table = setup
        assert chosen(table, RangeQuery.equals("a1", 7)).path == "secondary:a1"

    def test_estimates_track_reality(self, setup):
        """Every plan's N is exact: the chosen one lists the blocks the
        select reads, and each index plan lists its probe's blocks."""
        rel, table = setup
        query = RangeQuery.equals("a1", rel[0][1])
        result = table.select(query)
        plan = chosen(table, query)
        assert plan.path == result.access_path
        assert plan.block_ids == result.candidate_blocks
        assert len(plan.block_ids) == result.blocks_read > 0
        for other in table.explain(query).plans:
            if other.path == "secondary:a1":
                assert other.block_ids == table.secondary_indices[
                    "a1"
                ].range_lookup(rel[0][1], rel[0][1])


class TestPlannedExecution:
    @pytest.mark.parametrize(
        "query",
        [
            RangeQuery.between("a0", 2, 9),
            RangeQuery.between("a1", 5, 9),
            RangeQuery.equals("a3", 17),
            RangeQuery([RangePredicate("a1", 0, 63),
                        RangePredicate("a2", 7, 9)]),
            RangeQuery([]),
        ],
        ids=["primary", "secondary", "hash", "conjunction", "all"],
    )
    def test_execute_matches_reference(self, setup, query):
        rel, table = setup
        result = table.select(query)
        plan = chosen(table, query)
        assert (result.access_path, result.candidate_blocks) == (
            plan.path, plan.block_ids,
        )
        bound = [p.bind(rel.schema) for p in query.predicates]
        expected = sorted(
            (
                t
                for t in rel
                if all(lo <= t[pos] <= hi for pos, lo, hi in bound)
            ),
            key=rel.schema.mapper.phi,
        )
        assert sorted(result.tuples, key=rel.schema.mapper.phi) == expected


    @pytest.mark.parametrize("kind", ["secondary", "hash"])
    def test_indexed_select_returns_phi_order_after_splits(self, kind):
        """Splits give new blocks higher ids mid-file; an index plan
        still reads its blocks in directory order, so rows come back in
        phi order like every other path's."""
        schema = Schema(
            [Attribute(f"a{i}", IntegerRangeDomain(0, 15)) for i in range(3)]
        )
        rng = random.Random(11)
        rows = [tuple(rng.randrange(16) for _ in range(3)) for _ in range(200)]
        table = Table.from_relation(
            "t", Relation(schema, rows), SimulatedDisk(block_size=64),
            secondary_on=["a1"] if kind == "secondary" else [],
        )
        if kind == "hash":
            table.create_hash_index("a1")
        for _ in range(100):
            row = tuple(rng.randrange(16) for _ in range(3))
            table.insert(row)
            rows.append(row)
        result = table.select(RangeQuery.equals("a1", 3))
        assert result.access_path == f"{kind}:a1"
        assert result.tuples == sorted(
            (t for t in rows if t[1] == 3), key=schema.mapper.phi
        )


class TestExplain:
    def test_explain_lists_all_candidates(self, setup):
        _, table = setup
        text = str(table.explain(RangeQuery.equals("a3", 5)))
        assert "EXPLAIN" in text
        assert "scan" in text
        assert "hash:a3" in text
        assert text.count("->") == 1  # the chosen plan marker

    def test_explain_orders_cheapest_first(self, setup):
        _, table = setup
        text = str(table.explain(RangeQuery.between("a0", 0, 3)))
        first_plan_line = text.splitlines()[1]
        assert "->" in first_plan_line and "primary" in first_plan_line

    def test_heap_tables_price_extraction(self):
        """A heap table's t_cpu is t3, and it plans over the directory
        built at construction."""
        schema = Schema([Attribute("a0", IntegerRangeDomain(0, 63)),
                         Attribute("a1", IntegerRangeDomain(0, 63))])
        rng = random.Random(3)
        rel = Relation(
            schema,
            [(rng.randrange(64), rng.randrange(64)) for _ in range(800)],
        )
        heap = Table.from_relation(
            "h", rel, SimulatedDisk(block_size=256), compressed=False
        )
        query = RangeQuery.between("a0", 10, 12)
        report = heap.explain(query)
        plan = report.plans[report.chosen]
        assert plan.block_ids == heap.select(query).candidate_blocks
        scan = next(p for p in report.plans if p.path == "scan")
        assert len(scan.block_ids) == heap.num_blocks
        cost = report.costs_ms[report.plans.index(scan)]
        assert cost == pytest.approx(
            heap.num_blocks * (30.0 + HP_9000_735.t3_ms)
        )
