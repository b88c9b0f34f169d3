"""The block directory's rules against a brute-force oracle.

Sorted ordinals with heavy duplicates are packed into blocks of random
sizes, so runs of one ordinal straddle boundaries and fill whole
blocks.  With full entries the cover is exact; with first-only entries
(a container header) it is a superset that starts at most one block
earlier; the covering entry holds an ordinal exactly when it is stored.
Each block's share of the whole sorted image is exactly its own run,
and a block agrees with its own entry and with no perturbation of it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.directory import BlockDirectory

TOP = 40


@st.composite
def packed(draw):
    """Sorted, duplicate-heavy ordinals cut into non-empty blocks."""
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, TOP), st.integers(1, 30)),
            min_size=1,
            max_size=12,
        )
    )
    ordinals = sorted(o for o, n in runs for _ in range(n))
    blocks = []
    while ordinals:
        size = draw(st.integers(1, 25))
        blocks.append(ordinals[:size])
        ordinals = ordinals[size:]
    return blocks


def full(blocks):
    return BlockDirectory.of(
        (10 + i, b[0], b[-1], len(b)) for i, b in enumerate(blocks)
    )


def exact(blocks, lo, hi):
    return [i for i, b in enumerate(blocks) if b[0] <= hi and b[-1] >= lo]


ranges = st.tuples(st.integers(-2, TOP + 2), st.integers(-2, TOP + 2))


@given(packed(), st.lists(ranges, min_size=1, max_size=10))
@settings(max_examples=300, deadline=None)
def test_cover_is_exact_with_full_entries(blocks, queries):
    directory = full(blocks)
    directory.check("test")
    for lo, hi in queries:
        assert list(directory.cover(lo, hi)) == exact(blocks, lo, hi)


@given(packed(), st.lists(ranges, min_size=1, max_size=10))
@settings(max_examples=300, deadline=None)
def test_first_only_cover_starts_at_most_one_block_early(blocks, queries):
    directory = full(blocks)
    headers = BlockDirectory.of_firsts(
        [b[0] for b in blocks], [len(b) for b in blocks], TOP
    )
    headers.check("test")
    for lo, hi in queries:
        want = directory.cover(lo, hi)
        got = headers.cover(lo, hi)
        assert set(exact(blocks, lo, hi)) <= set(got)
        assert got.stop == want.stop
        assert want.start - 1 <= got.start <= want.start


@given(packed(), st.lists(st.integers(-2, TOP + 2), min_size=1))
@settings(max_examples=300, deadline=None)
def test_covering_entry_holds_exactly_the_stored_ordinals(blocks, probes):
    directory = full(blocks)
    stored = {o for b in blocks for o in b}
    for ordinal in probes + sorted(stored):
        position = directory.covering(ordinal)
        held = position is not None and ordinal in blocks[position]
        assert held == (ordinal in stored)
        # an insert lands where the block order stays sorted
        at = directory.placement(ordinal)
        assert at == 0 or blocks[at][0] <= ordinal
        assert at + 1 == len(blocks) or ordinal < blocks[at + 1][0]


@given(packed())
@settings(max_examples=100, deadline=None)
def test_frozen_copy_equals_the_live_lists(blocks):
    directory = full(blocks)
    live = BlockDirectory(*(list(column) for column in zip(*directory)))
    assert live == directory and live.frozen() == directory
    assert list(live) == list(directory)


def first_only(blocks):
    return BlockDirectory.of_firsts(
        [b[0] for b in blocks], [len(b) for b in blocks], TOP
    )


@given(packed())
@settings(max_examples=300, deadline=None)
def test_each_block_shares_exactly_its_own_run(blocks):
    image = [o for b in blocks for o in b]
    for directory in (full(blocks), first_only(blocks)):
        for position, block in enumerate(blocks):
            assert list(directory.share(position, image)) == block


@given(packed())
@settings(max_examples=200, deadline=None)
def test_a_block_agrees_only_with_its_own_entry(blocks):
    for directory in (full(blocks), first_only(blocks)):
        for position, block in enumerate(blocks):
            assert directory.disagreement(position, block) is None
            others = [
                block[:-1],  # one tuple short
                block + [block[-1]],  # one tuple more
                [block[0] - 1] + block[1:],  # wrong first
            ]
            if not directory.bounded:
                others.append(block[:-1] + [block[-1] + 1])  # wrong last
            for other in others:
                assert directory.disagreement(position, other) is not None


def test_a_first_only_last_is_a_bound():
    directory = first_only([[0, 3], [5, 9]])
    assert directory.disagreement(0, [0, 4]) is None
    assert directory.disagreement(0, [0, 5]) is None
    assert directory.disagreement(0, [0, 6]) == (
        "ends at ordinal 6, past its bound 5"
    )
    assert directory.disagreement(1, [5, TOP + 1]) is not None
    assert full([[0, 3], [5, 9]]).disagreement(0, [0, 4]) == (
        "ends at ordinal 4, directory says 3"
    )


class TestCheck:
    def test_empty_directory(self):
        directory = BlockDirectory()
        directory.check("test")
        assert directory.covering(0) is None
        assert list(directory.cover(0, 10)) == []

    @pytest.mark.parametrize(
        "entries",
        [
            [(0, 5, 4, 1)],  # first > last
            [(0, 5, 5, 0)],  # no tuples
            [(0, 0, 10, 3), (1, 9, 12, 2)],  # overlapping blocks
        ],
    )
    def test_rejects_a_broken_order(self, entries):
        with pytest.raises(StorageError, match="test"):
            BlockDirectory.of(entries).check("test")

    def test_accepts_a_shared_boundary(self):
        entries = [(0, 0, 10, 3), (1, 10, 10, 4), (2, 10, 12, 2)]
        BlockDirectory.of(entries).check("test")
