"""Seeded inputs for the served workloads, and the answers they must get.

Nothing here imports ``repro``: the table, the keys and the rows written
are numpy arrays made from ``--seed`` alone, so both sides of a
comparison see byte-identical inputs and the expected answers are
computed without trusting the program under test.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

COLUMNS = ("A1", "A2", "A3", "A4", "A5", "A6")
#: Inclusive maxima; every minimum is 0.  ``make_rows`` plants one row at
#: all-minimum and one at all-maximum, so the domains the server infers
#: from the CSV are the same for every seed.
KEY_MAX = 8191
VALUE_MAX = 255
MAXIMA = (KEY_MAX,) + (VALUE_MAX,) * 5
#: Fig 5.7 fixed-width bytes per tuple: a 2-byte A1 and five 1-byte fields.
FIXED_WIDTH_BYTES = 7
#: The block size the server stores tables in (its default).
BLOCK_BYTES = 8192


def make_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` rows over the six columns, extremes pinned.

    A1 and A3 take every value equally often (in a seeded order), so a
    select on either returns the same number of rows whatever the seed;
    the other columns are uniform.
    """
    rows = np.empty((n, len(COLUMNS)), dtype=np.int64)
    for c, hi in enumerate(MAXIMA):
        if c in (0, 2):
            rows[:, c] = rng.permutation(np.arange(n) % (hi + 1))
        else:
            rows[:, c] = rng.integers(0, hi + 1, n)
    rows[0] = 0
    rows[1] = MAXIMA
    return rows


def write_csv(path: str, rows: np.ndarray) -> None:
    """Write ``rows`` with a header, the input ``repro serve`` ingests."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(COLUMNS) + "\n")
        np.savetxt(fh, rows, fmt="%d", delimiter=",")


def zipf_keys(
    rng: np.random.Generator, n: int, s: float = 1.2
) -> np.ndarray:
    """``n`` A1 keys whose popularity follows zipf ``s`` over all keys.

    Ranks map to keys through a seeded permutation, so the hot keys are
    scattered over the table's blocks instead of all sitting in block 0.
    """
    weights = np.arange(1, KEY_MAX + 2, dtype=np.float64) ** -s
    ranks = rng.choice(KEY_MAX + 1, size=n, p=weights / weights.sum())
    return rng.permutation(KEY_MAX + 1)[ranks]


def sort_rows(rows: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order (A1 first)."""
    return rows[np.lexsort(rows.T[::-1])]


class Answers:
    """Exact answers for selects on the initial table."""

    def __init__(self, rows: np.ndarray):
        self.rows = sort_rows(rows)
        self.key_counts = np.bincount(self.rows[:, 0], minlength=KEY_MAX + 1)
        self._key_start = np.concatenate(([0], np.cumsum(self.key_counts)))
        self.a3_counts = np.bincount(self.rows[:, 2], minlength=VALUE_MAX + 1)

    def key_rows(self, key: int) -> List[List[int]]:
        lo, hi = self._key_start[key], self._key_start[key + 1]
        return self.rows[lo:hi].tolist()

    def a3_rows(self, value: int) -> List[List[int]]:
        return self.rows[self.rows[:, 2] == value].tolist()


def same_rows(got: Sequence[Sequence[int]], want: List[List[int]]) -> bool:
    """Bag equality of two row lists (a select's result order is free)."""
    return sorted(map(list, got)) == sorted(want)
