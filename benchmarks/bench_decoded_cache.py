"""Benchmark: the decoded-block cache.

A warm decoded-block cache answers repeat point lookups without
decoding (or reading) anything.  The cold run decodes the block of
every lookup; the warm run must be served from decoded tuples in
memory, which the buffer-pool statistics confirm.
"""

import random

import pytest

from repro.db.table import Table
from repro.storage.disk import SimulatedDisk

BLOCK_SIZE = 8192


@pytest.fixture(scope="module")
def probe_table(timing_relation):
    table = Table.from_relation(
        "bench",
        timing_relation,
        SimulatedDisk(block_size=BLOCK_SIZE),
        decoded_cache_capacity=1024,
    )
    rng = random.Random(33)
    probes = rng.sample(list(timing_relation), 200)
    return table, probes


def test_point_lookups_cold(benchmark, timing_relation):
    """Every lookup decodes its block: no cache at all."""

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


def test_point_lookups_warm_decoded_cache(benchmark, probe_table):
    """Repeat lookups are answered from decoded tuples in memory."""
    table, probes = probe_table
    for t in probes:  # warm the decoded cache
        assert table.contains(t)

    def run():
        return sum(table.contains(t) for t in probes)

    found = benchmark.pedantic(run, rounds=3)
    assert found == len(probes)
    stats = table.buffer_pool.stats
    assert stats.decoded_hits > 0  # the warm path never re-decoded
    benchmark.extra_info["decoded_hits"] = stats.decoded_hits
    benchmark.extra_info["decoded_misses"] = stats.decoded_misses
    benchmark.extra_info["decoded_hit_rate"] = round(
        stats.decoded_hit_rate, 4
    )
