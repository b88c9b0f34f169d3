"""Snapshot select against live ``Table.select`` on the same rows.

:meth:`TableSnapshot.select` and the live :meth:`Table.select` share one
block loop.  It filters every table whose ordinal space fits int64 in
ordinal space, whatever its codec — one ``searchsorted`` slice for the
leading attribute, vector masks for the rest, tuples built only for the
matches — and a table over a wider space tuple-at-a-time.  Both plan with the one planner over their own
directory, so the live path and a brute-force oracle under it are the
specification: both must return identical rows in identical phi order,
take the same path, list the same candidate blocks and account for the
same blocks read and tuples examined, on vector-eligible schemas and
on the scalar fallback alike, before and after writes that split
blocks, and through stashed versions a held snapshot reads.  Relations
mix in long runs of one tuple, so runs straddle block boundaries
(``last[i] == first[i + 1]``) and splits leave blocks that share a
first ordinal.  Every snapshot
select runs twice, so on a vector-codec table the second answer comes
from the table's ordinal cache.  Live selects on the vector and the
scalar codec of the same rows must agree the same way.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.codec import BlockCodec
from repro.core.phi import OrdinalMapper
from repro.core.vectorized import VectorizedBlockCodec
from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.errors import QueryCancelled
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk

#: Domain sizes per schema.  The first two take the array path (one
#: with a multi-byte leading field); the third's ordinal space is 2^64,
#: above the 2^61 int64 bound, so it keeps the scalar codec and filters
#: tuples.
SCHEMAS = {
    "vector-3": (6, 8, 10),
    "vector-wide": (300, 4, 2, 17),
    "scalar-2^64": (1 << 16,) * 4,
}
BLOCK_SIZE = 64

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_table(sizes, rows, block_size=BLOCK_SIZE, *, codec=None, mvcc=True):
    schema = Schema(
        [
            Attribute(f"a{i}", IntegerRangeDomain(0, size - 1))
            for i, size in enumerate(sizes)
        ]
    )
    relation = Relation(schema, [tuple(r) for r in rows])
    table = Table.from_relation(
        "t", relation, SimulatedDisk(block_size=block_size), codec=codec
    )
    if mvcc:
        table.enable_mvcc()
    return table


def values(size):
    """Attribute values biased to collide, so predicates hit rows."""
    return st.one_of(
        st.integers(0, min(size - 1, 3)),
        st.integers(0, size - 1),
        st.just(size - 1),
    )


@st.composite
def rows_for(draw, sizes):
    """Rows plus up to two heavy duplicates: a block holds about 55
    copies of one tuple at ``BLOCK_SIZE``, so a long run straddles."""
    row = st.tuples(*(values(s) for s in sizes))
    rows = draw(st.lists(row, min_size=1, max_size=60))
    for heavy in draw(st.lists(row, max_size=2)):
        rows += [heavy] * draw(st.integers(2, 120))
    return rows


@st.composite
def predicates(draw, sizes):
    """A conjunction; attribute 0 is drawn often, so it repeats."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.one_of(st.just(0), st.integers(0, len(sizes) - 1)))
        size = sizes[pos]
        kind = draw(st.sampled_from(["point", "full", "range", "overhang"]))
        if kind == "point":
            lo = hi = draw(values(size))
        elif kind == "full":
            lo, hi = 0, size - 1
        elif kind == "range":
            lo, hi = sorted((draw(values(size)), draw(values(size))))
        else:  # clamped to the domain by bind()
            lo, hi = draw(values(size)), size + draw(st.integers(0, 5))
        out.append(RangePredicate(f"a{pos}", lo, hi))
    return RangeQuery(out)


@st.composite
def cases(draw):
    sizes = SCHEMAS[draw(st.sampled_from(sorted(SCHEMAS)))]
    rows = draw(rows_for(sizes))
    queries = draw(st.lists(predicates(sizes), min_size=1, max_size=4))
    return sizes, rows, queries


def oracle(table, rows, query):
    """Matching rows by brute force, in phi order."""
    bound = [p.bind(table.schema) for p in query.predicates]
    phi = table.schema.mapper.phi
    return sorted(
        (
            tuple(r)
            for r in rows
            if all(lo <= r[pos] <= hi for pos, lo, hi in bound)
        ),
        key=phi,
    )


def live_expectation(table, query):
    """What a snapshot of the table's current state must return: the
    live select's answer, exactly."""
    live = table.select(query)
    return (
        live.tuples,
        live.access_path,
        live.candidate_blocks,
        live.blocks_read,
        live.tuples_examined,
    )


def assert_same_result(got, want):
    assert (
        got.tuples,
        got.access_path,
        got.candidate_blocks,
        got.blocks_read,
        got.tuples_examined,
    ) == want


def assert_selects_twice(snap, query, want):
    """Run ``query`` twice: on a vector-codec table the second run is
    served from the ordinal cache, and both must give ``want``."""
    got = snap.select(query)
    assert_same_result(got, want)
    assert_same_result(snap.select(query), want)
    return got


def assert_matches_live(table, snap, query):
    return assert_selects_twice(snap, query, live_expectation(table, query))


class TestCodecChoice:
    @pytest.mark.parametrize("name", ["vector-3", "vector-wide"])
    def test_vector_schemas_take_the_array_path(self, name):
        table = make_table(SCHEMAS[name], [(0,) * len(SCHEMAS[name])])
        vec = table.storage.codec.vector_codec
        assert vec is not None and vec.decode_supported

    def test_wide_schema_keeps_the_scalar_codec(self):
        sizes = SCHEMAS["scalar-2^64"]
        table = make_table(sizes, [(0,) * len(sizes)])
        assert table.storage.codec.vector_codec is None


def assert_codecs_answer_alike(tables, rows, queries):
    """Every table answers every query with the oracle's rows, and all
    read the same blocks and examine the same tuples."""
    for query in queries * 2:  # the repeat hits the ordinal caches
        want = oracle(tables[0], rows, query)
        results = [table.select(query) for table in tables]
        for result in results:
            assert result.tuples == want
        assert len({
            (r.blocks_read, r.tuples_examined, r.access_path,
             tuple(r.candidate_blocks))
            for r in results
        }) == 1


class TestLiveCodecs:
    @SETTINGS
    @given(cases())
    def test_vector_and_scalar_codecs_answer_alike(self, case):
        """Live selects on every codec of an int64 space filter ordinal
        arrays (through the ordinal cache when MVCC is on, decoding each
        block without it); wider spaces filter tuples.  Same rows,
        order, blocks read and tuples examined, and the rows are the
        oracle's."""
        sizes, rows, queries = case
        scalar = BlockCodec(sizes, vectorized=False)
        tables = [
            make_table(sizes, rows),
            make_table(sizes, rows, mvcc=False),
            make_table(sizes, rows, codec=scalar),
            make_table(sizes, rows, mvcc=False, codec=scalar),
        ]
        fits = OrdinalMapper(sizes).fits_int64
        assert (tables[2].ordinal_cache is not None) == fits
        assert_codecs_answer_alike(tables, rows, queries)
        if fits:
            vector, scalar = tables[0].ordinal_cache, tables[2].ordinal_cache
            assert (scalar.hits, scalar.misses) == (vector.hits, vector.misses)

    def test_decode_unsafe_vector_schema_filters_arrays(self):
        """A vector codec whose decode is not overflow-safe still gets
        the ordinal cache: the codec decodes it with the scalar decoder."""
        sizes = (2,) * 61
        rows = [tuple((i >> k) & 1 for k in range(61)) for i in range(30)]
        tables = [
            make_table(sizes, rows, block_size=512),
            make_table(
                sizes, rows, block_size=512,
                codec=BlockCodec(sizes, vectorized=False), mvcc=False,
            ),
        ]
        codec = tables[0].storage.codec
        assert codec.vectorized and not codec.vector_codec.decode_supported
        assert tables[0].ordinal_cache is not None
        queries = [
            RangeQuery([]),
            RangeQuery(
                [RangePredicate("a0", 0, 0), RangePredicate("a1", 1, 1)]
            ),
            RangeQuery([RangePredicate("a60", 1, 1)]),
        ]
        assert_codecs_answer_alike(tables, rows, queries)
        assert tables[0].ordinal_cache.hits > 0


class TestStaticTables:
    @SETTINGS
    @given(cases())
    def test_snapshot_matches_live_and_oracle(self, case):
        sizes, rows, queries = case
        table = make_table(sizes, rows)
        with table.read_snapshot() as snap:
            for query in queries:
                got = assert_matches_live(table, snap, query)
                assert got.tuples == oracle(table, rows, query)

    def test_second_leading_predicate_is_still_masked(self):
        rows = [(a, b, c) for a in range(6) for b in range(3) for c in (0, 9)]
        table = make_table(SCHEMAS["vector-3"], rows)
        query = RangeQuery(
            [RangePredicate("a0", 1, 3), RangePredicate("a0", 2, 2)]
        )
        with table.read_snapshot() as snap:
            got = assert_matches_live(table, snap, query)
        assert got.tuples and {t[0] for t in got.tuples} == {2}
        assert got.tuples == oracle(table, rows, query)

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_single_value_and_full_domain_ranges(self, name):
        sizes = SCHEMAS[name]
        mapper = OrdinalMapper(sizes)
        step = mapper.space_size // 41 + 1
        rows = [mapper.phi_inverse(i * step) for i in range(40)]
        table = make_table(sizes, rows)
        assert table.num_blocks > 1
        with table.read_snapshot() as snap:
            for pos, size in enumerate(sizes):
                for lo, hi in ((0, size - 1), (rows[7][pos],) * 2):
                    query = RangeQuery([RangePredicate(f"a{pos}", lo, hi)])
                    got = assert_matches_live(table, snap, query)
                    assert got.tuples == oracle(table, rows, query)
            full = assert_matches_live(table, snap, RangeQuery([]))
            assert full.tuples_examined == len(rows)

    def test_decode_unsafe_vector_codec_matches_live(self):
        sizes = (2,) * 61  # fits int64, but corrupt digits could wrap it
        rows = [tuple((i >> k) & 1 for k in range(61)) for i in range(30)]
        table = make_table(sizes, rows, block_size=512)
        vec = table.storage.codec.vector_codec
        assert vec is not None and not vec.decode_supported
        assert table.ordinal_cache is not None
        query = RangeQuery(
            [RangePredicate("a0", 0, 0), RangePredicate("a1", 1, 1)]
        )
        with table.read_snapshot() as snap:
            got = assert_matches_live(table, snap, query)
        assert got.tuples == oracle(table, rows, query)


def mutations(sizes):
    return st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete"]),
            st.tuples(*(values(s) for s in sizes)),
        ),
        min_size=1,
        max_size=30,
    )


class TestAcrossWrites:
    @SETTINGS
    @given(st.data())
    def test_after_writes_and_through_a_held_snapshot(self, data):
        sizes, rows, queries = data.draw(cases())
        ops = data.draw(mutations(sizes))
        table = make_table(sizes, rows)
        held = table.read_snapshot()
        try:
            before = [live_expectation(table, q) for q in queries]
            current = Counter(map(tuple, rows))
            for op, t in ops:
                if op == "insert":
                    table.insert(t)
                    current[t] += 1
                elif table.delete(t):
                    current[t] -= 1
            live_rows = list(current.elements())
            with table.read_snapshot() as fresh:
                for query in queries:
                    got = assert_matches_live(table, fresh, query)
                    assert got.tuples == oracle(table, live_rows, query)
            for query, want in zip(queries, before):
                assert_selects_twice(held, query, want)
        finally:
            held.close()

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_splits_and_stashed_versions(self, name):
        sizes = SCHEMAS[name]
        rows = [tuple(i % s for s in sizes) for i in range(20)]
        table = make_table(sizes, rows)
        blocks_before = table.num_blocks
        queries = [
            RangeQuery([]),
            RangeQuery([RangePredicate("a0", 1, 2)]),
            RangeQuery(
                [RangePredicate("a0", 0, 3), RangePredicate("a1", 1, 1)]
            ),
        ]
        held = table.read_snapshot()
        cache = table.ordinal_cache
        try:
            before = [live_expectation(table, q) for q in queries]
            for query, want in zip(queries, before):
                assert_selects_twice(held, query, want)
            for i in range(40):
                table.insert([(i * 7 + k) % s for k, s in enumerate(sizes)])
                if i % 8 == 0:  # cache blocks while they split
                    with table.read_snapshot() as fresh:
                        fresh.scan()
            for t in rows[::3]:
                assert table.delete(t)
            assert table.num_blocks > blocks_before  # inserts split blocks
            if cache is not None:
                assert 0 < len(cache) <= table.num_blocks
            stash_reads = table.mvcc.stats.reads_from_stash
            for query, want in zip(queries, before):
                assert_selects_twice(held, query, want)
            assert table.mvcc.stats.reads_from_stash > stash_reads
            with table.read_snapshot() as fresh:
                for query in queries:
                    assert_matches_live(table, fresh, query)
            table.compact()  # every block moves to a fresh id
            if cache is not None:
                # The publish dropped every entry whose block retired.
                assert len(cache) == 0
            with table.read_snapshot() as fresh:
                for query in queries:
                    assert_matches_live(table, fresh, query)
            for query, want in zip(queries, before):
                assert_selects_twice(held, query, want)
        finally:
            held.close()


class TestCancellation:
    def test_array_path_cancels_at_a_block_boundary(self, monkeypatch):
        sizes = SCHEMAS["vector-3"]
        rows = [(i % 6, i % 8, i % 10) for i in range(120)]
        table = make_table(sizes, rows)
        assert table.num_blocks > 3
        decodes = []
        real = VectorizedBlockCodec.decode_ordinals_array

        def counting(self, data):
            decodes.append(len(data))
            return real(self, data)

        monkeypatch.setattr(
            VectorizedBlockCodec, "decode_ordinals_array", counting
        )
        polls = []

        def should_cancel():
            polls.append(None)
            return len(polls) > 2

        with table.read_snapshot() as snap:
            with pytest.raises(QueryCancelled, match="cancelled at block"):
                snap.select(
                    RangeQuery([RangePredicate("a1", 0, 3)]),
                    should_cancel=should_cancel,
                )
            # Polled before every block: two blocks ran, the third did not.
            assert len(polls) == 3
            assert len(decodes) == 2
            decodes.clear()
            result = snap.select(RangeQuery([RangePredicate("a1", 0, 3)]))
        # The two blocks decoded before the cancel are ordinal-cache
        # hits; every other block decodes once.
        assert result.blocks_read == table.num_blocks
        assert len(decodes) == table.num_blocks - 2
        assert table.ordinal_cache.hits == 2


class TestValueIndexFallback:
    def test_snapshot_plans_by_the_directory(self):
        """The live value indexes track the current state, so a
        snapshot never probes them: where a live select takes a
        secondary or hash index, the snapshot plans by its directory
        and returns the same rows."""
        sizes = SCHEMAS["vector-3"]
        rows = [(i % 6, i % 8, i % 10) for i in range(200)]
        table = make_table(sizes, rows)
        table.create_secondary_index("a1")
        table.create_hash_index("a2")
        cases = [
            (RangeQuery.equals("a1", 3), "secondary:a1", "scan"),
            (RangeQuery.equals("a2", 4), "hash:a2", "scan"),
            (
                RangeQuery(
                    [RangePredicate("a0", 1, 2), RangePredicate("a1", 3, 3)]
                ),
                "primary",
                "primary",
            ),
        ]
        with table.read_snapshot() as snap:
            for query, live_path, snap_path in cases:
                live = table.select(query)
                got = snap.select(query)
                assert (live.access_path, got.access_path) == (
                    live_path, snap_path,
                )
                assert got.tuples == live.tuples == oracle(table, rows, query)
