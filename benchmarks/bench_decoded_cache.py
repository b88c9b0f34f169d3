"""Benchmark: cold point lookups and the snapshot ordinal cache.

The cold run probes 200 tuples on a freshly built table: each lookup
reads its one block and walks its difference stream with early exit.

Snapshot selects (every served select) read through the table's ordinal
cache.  On a table shaped like the repository benchmark's point-hot
workload, a first read of a block (a miss: fetch, verify, decode) is
timed against a repeat read (a hit: fetch, verify, reuse the decoded
ordinals).
"""

import random

import numpy as np
import pytest

from repro.db.database import Database
from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.relational.algebra import RangePredicate
from repro.storage.disk import SimulatedDisk

BLOCK_SIZE = 8192
#: point-hot's table: A1 in [0, 8191] with every value equally often,
#: A2-A6 uniform in [0, 255]; 200k rows fill 145 blocks of 8 KiB.
POINT_HOT_ROWS = 200_000
POINT_HOT_MAXIMA = (8191, 255, 255, 255, 255, 255)


def test_point_lookups_cold(benchmark, timing_relation):
    """Every lookup reads and walks its block: no cache at all."""

    def run():
        table = Table.from_relation(
            "bench",
            timing_relation,
            SimulatedDisk(block_size=BLOCK_SIZE),
        )
        rng = random.Random(33)
        probes = rng.sample(list(timing_relation), 200)
        return sum(table.contains(t) for t in probes)

    found = benchmark.pedantic(run, rounds=3)
    assert found == 200


@pytest.fixture(scope="module")
def point_hot_table():
    rng = np.random.default_rng(0)
    rows = np.empty((POINT_HOT_ROWS, len(POINT_HOT_MAXIMA)), dtype=np.int64)
    for c, hi in enumerate(POINT_HOT_MAXIMA):
        if c == 0:
            rows[:, c] = rng.permutation(np.arange(POINT_HOT_ROWS) % (hi + 1))
        else:
            rows[:, c] = rng.integers(0, hi + 1, POINT_HOT_ROWS)
    rows[0], rows[1] = 0, POINT_HOT_MAXIMA
    columns = [f"A{i + 1}" for i in range(len(POINT_HOT_MAXIMA))]
    table = Database().create_table("bench", rows.tolist(), columns=columns)
    table.enable_mvcc()
    keys = range(0, POINT_HOT_MAXIMA[0] + 1, 41)  # 200 keys, all blocks
    queries = [RangeQuery([RangePredicate("A1", k, k)]) for k in keys]
    return table, queries


def _snapshot_selects(table, queries, *, cold):
    cache = table.ordinal_cache
    matched = 0
    for query in queries:
        if cold:
            cache.retain(())  # as a publish that retired every block
        with table.read_snapshot() as snap:
            matched += len(snap.select(query).tuples)
    return matched


def _record_cache(benchmark, cache):
    benchmark.extra_info["ordinal_cache_hits"] = cache.hits
    benchmark.extra_info["ordinal_cache_misses"] = cache.misses
    benchmark.extra_info["ordinal_cache_entries"] = len(cache)


def test_snapshot_select_first_read(benchmark, point_hot_table):
    """Every select reads its blocks for the first time: each decodes."""
    table, queries = point_hot_table
    cache = table.ordinal_cache
    hits = cache.hits
    matched = benchmark.pedantic(
        _snapshot_selects, args=(table, queries), kwargs={"cold": True},
        rounds=3,
    )
    assert matched >= len(queries)
    assert cache.hits == hits  # never served from the cache
    _record_cache(benchmark, cache)


def test_snapshot_select_repeat_read(benchmark, point_hot_table):
    """Every select's blocks are cached: fetched and verified, not decoded."""
    table, queries = point_hot_table
    cache = table.ordinal_cache
    _snapshot_selects(table, queries, cold=False)  # warm the cache
    misses = cache.misses
    matched = benchmark.pedantic(
        _snapshot_selects, args=(table, queries), kwargs={"cold": False},
        rounds=3,
    )
    assert matched >= len(queries)
    assert cache.misses == misses  # never decoded again
    _record_cache(benchmark, cache)
