"""Statistical queries, EXPLAIN plans, and bounded-memory bulk loading.

The authors' research programme (CIESIN earth-science data, statistical
databases) is about *aggregates over compressed data*.  This example
shows the parts of the library built for that:

1. bulk-load a census-style relation with bounded memory (external sort
   spilling to a scratch disk);
2. EXPLAIN a few queries — every access path the planner could take,
   with its exact N and its Equation 5.7 cost, the chosen one marked;
3. run COUNT / AVG / MIN / MAX range aggregates, showing how many blocks
   were answered straight from the block directory without decoding.

Run:  python examples/statistical_queries.py
"""

import random

from repro.db.aggregates import aggregate
from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.relational.domain import CategoricalDomain, IntegerRangeDomain
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk
from repro.storage.extsort import bulk_load

REGIONS = ["midwest", "northeast", "pacific", "south", "west"]


def census_schema() -> Schema:
    return Schema(
        [
            Attribute("region", CategoricalDomain(REGIONS)),
            Attribute("age", IntegerRangeDomain(0, 99)),
            Attribute("household_size", IntegerRangeDomain(1, 12)),
            Attribute("income_bracket", IntegerRangeDomain(0, 15)),
            Attribute("respondent", IntegerRangeDomain(0, 99_999)),
        ]
    )


def census_rows(schema, n=30_000, seed=17):
    """A generator — the bulk loader never sees the whole relation."""
    rng = random.Random(seed)
    for i in range(n):
        yield schema.encode_tuple(
            (
                rng.choice(REGIONS),
                min(99, max(0, int(rng.gauss(38, 18)))),
                min(12, max(1, int(rng.gauss(2.6, 1.4)))),
                rng.randrange(16),
                i,
            )
        )


def main() -> None:
    schema = census_schema()

    # -- 1. bulk load with bounded memory ---------------------------------
    data_disk = SimulatedDisk(block_size=8192)
    spill_disk = SimulatedDisk(block_size=8192)
    storage = bulk_load(
        schema,
        census_rows(schema),
        data_disk,
        memory_budget=2_000,   # far below the 30k relation
        spill_disk=spill_disk,
    )
    print(f"bulk-loaded {storage.num_tuples:,} tuples into "
          f"{storage.num_blocks} blocks "
          f"(external sort spilled {spill_disk.stats.blocks_written} "
          "scratch blocks)")

    table = Table("census", schema, storage)
    table.create_secondary_index("age")
    table.create_hash_index("income_bracket")

    # -- 2. EXPLAIN --------------------------------------------------------
    print(f"\n{table.explain(RangeQuery.between('age', 30, 40))}")
    print(f"\n{table.explain(RangeQuery.equals('income_bracket', 7))}")
    print(f"\n{table.explain(RangeQuery.between('region', 0, 0))}")

    # -- 3. aggregates ------------------------------------------------------
    print("\nstatistical queries:")
    q_region = RangeQuery.between("region", 1, 3)
    count = aggregate(table, "count", None, q_region)
    print(f"  COUNT(*) WHERE region in [northeast..south]: "
          f"{count.value:,.0f}  "
          f"(decoded {count.blocks_read} blocks, "
          f"{count.blocks_answered_from_directory} answered from the "
          "directory)")

    q_age = RangeQuery.between("age", 30, 40)
    avg = aggregate(table, "avg", "household_size", q_age)
    print(f"  AVG(household_size) WHERE age in [30, 40]: {avg.value:.2f}  "
          f"(path {avg.access_path}, {avg.blocks_read} blocks)")

    mn = aggregate(table, "min", "age", RangeQuery([]))
    mx = aggregate(table, "max", "age", RangeQuery([]))
    print(f"  MIN(age) = {mn.value:.0f}, MAX(age) = {mx.value:.0f}")


if __name__ == "__main__":
    main()
