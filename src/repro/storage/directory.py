"""The block directory: which phi ordinals each block of a file holds.

One entry per block, in phi order: ``(block_id, first, last, count)``,
the first and last phi ordinal the block stores and its tuple count —
what the primary index of Figure 4.4 holds.  Blocks are phi-clustered,
so ``first <= last`` in every entry and ``last[i] <= first[i + 1]``
across entries; the two are equal when a run of one tuple straddles the
boundary.

Every holder of a directory keeps this one type: an
:class:`~repro.storage.avqfile.AVQFile` (its four columns are the
lists it mutates), a heap table, each MVCC epoch (a frozen copy) and
the container reader.  Every read and integrity check asks it the same
questions:

* :meth:`BlockDirectory.cover` — the positions whose ``[first, last]``
  overlaps a range: from the first entry whose ``last >= lo`` to the
  last whose ``first <= hi``, the exact cover Figure 5.8 counts;
* :meth:`BlockDirectory.covering` — the one block a stored ordinal can
  be in: the first whose range reaches it;
* :meth:`BlockDirectory.placement` — the block an insert goes to;
* :meth:`BlockDirectory.check` — the order above, raising
  :class:`~repro.errors.StorageError`;
* :meth:`BlockDirectory.disagreement` — why a decoded block is not the
  one its entry records, for every scrub, repair and container read;
* :meth:`BlockDirectory.share` — a block's own ordinals in a sorted
  image of the file, for write-ahead-log repair.

:meth:`BlockDirectory.replace` is the one edit: it swaps a span of
entries for new ones, and every block rewrite of an
:class:`~repro.storage.avqfile.AVQFile` goes through it.

A container header records no ``last``: :meth:`BlockDirectory.of_firsts`
bounds each block's by the next block's first ordinal, so its cover is
a superset of the exact one that starts at most one block earlier, a
decoded block's last ordinal is checked against that bound only, and a
block's share is counted from block 0.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Iterator, Optional, Protocol, Sequence, Tuple

from repro.errors import StorageError

__all__ = ["BlockDirectory", "DecodedRun", "DirectoryEntry"]

#: ``(block_id, first_ordinal, last_ordinal, count)``.
DirectoryEntry = Tuple[int, int, int, int]


class DecodedRun(Protocol):
    """Decoded ordinals: a list, an int64 array or a lazy view."""

    def __len__(self) -> int: ...

    def __getitem__(self, index: int, /) -> Any: ...


class BlockDirectory:
    """Four parallel columns, one entry per block in phi order;
    ``bounded`` when ``lasts`` are only bounds (:meth:`of_firsts`)."""

    __slots__ = ("ids", "firsts", "lasts", "counts", "bounded")

    def __init__(
        self,
        ids: Sequence[int] = (),
        firsts: Sequence[int] = (),
        lasts: Sequence[int] = (),
        counts: Sequence[int] = (),
    ) -> None:
        self.ids = ids
        self.firsts = firsts
        self.lasts = lasts
        self.counts = counts
        self.bounded = False

    @classmethod
    def of(cls, entries: Iterable[Sequence[int]]) -> "BlockDirectory":
        """A frozen directory over ``(block_id, first, last, count)``
        entries; fields past the fourth are ignored."""
        columns = tuple(zip(*entries))
        return cls(*columns[:4]) if columns else cls()

    @classmethod
    def of_firsts(
        cls, firsts: Sequence[int], counts: Sequence[int], top: int
    ) -> "BlockDirectory":
        """A directory from first ordinals alone, keyed by position.

        Each block's last ordinal is bounded by the next block's first,
        and the final block's by ``top``.
        """
        lasts = (*firsts[1:], top) if firsts else ()
        directory = cls(
            tuple(range(len(firsts))), tuple(firsts), lasts, tuple(counts)
        )
        directory.bounded = True
        return directory

    def frozen(self) -> "BlockDirectory":
        """An immutable copy (a no-op copy for tuple columns)."""
        copy = BlockDirectory(
            tuple(self.ids),
            tuple(self.firsts),
            tuple(self.lasts),
            tuple(self.counts),
        )
        copy.bounded = self.bounded
        return copy

    def replace(
        self, lo: int, hi: int, entries: Sequence[Sequence[int]]
    ) -> None:
        """Replace the entries at positions ``[lo, hi)`` by ``entries``
        (fields past the fourth are ignored): the only edit of a
        directory's columns (lists, not frozen)."""
        columns = tuple(zip(*entries)) or ((), (), (), ())
        for column, values in zip(
            (self.ids, self.firsts, self.lasts, self.counts), columns
        ):
            column[lo:hi] = values  # type: ignore[index]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[DirectoryEntry]:
        return zip(self.ids, self.firsts, self.lasts, self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockDirectory):
            return NotImplemented
        mine = self.frozen()
        theirs = other.frozen()
        return (mine.ids, mine.firsts, mine.lasts, mine.counts) == (
            theirs.ids, theirs.firsts, theirs.lasts, theirs.counts
        )

    # ------------------------------------------------------------------
    # The rules
    # ------------------------------------------------------------------

    def cover(self, lo: int, hi: int) -> range:
        """Positions of every block whose ``[first, last]`` overlaps
        ``[lo, hi]``; empty when ``lo > hi``."""
        return range(self._first_reaching(lo), bisect_right(self.firsts, hi))

    def covering(self, ordinal: int) -> Optional[int]:
        """Position of the one block a stored ``ordinal`` can be in.

        The first block whose range reaches ``ordinal``: when a run of
        it straddles blocks, this block ends with it.  ``None`` when the
        ordinal falls outside every block's range.
        """
        position = self._first_reaching(ordinal)
        if position < len(self.firsts) and self.firsts[position] <= ordinal:
            return position
        return None

    def placement(self, ordinal: int) -> int:
        """Position of the block an insert of ``ordinal`` goes to: the
        last whose first ordinal is at most it, else block 0."""
        return max(bisect_right(self.firsts, ordinal) - 1, 0)

    def check(self, where: str) -> None:
        """Raise :class:`StorageError` unless every entry holds a tuple,
        ``first <= last``, and each block starts at or after the
        previous block's last ordinal."""
        prev_last: Optional[int] = None
        for block_id, first, last, count in self:
            if count < 1 or last < first:
                raise StorageError(
                    f"{where}: impossible directory entry for block "
                    f"{block_id} ([{first}, {last}], {count} tuples)"
                )
            if prev_last is not None and first < prev_last:
                raise StorageError(
                    f"{where}: block {block_id} first ordinal {first} "
                    f"precedes previous block's last {prev_last}"
                )
            prev_last = last

    def disagreement(
        self, position: int, ordinals: DecodedRun
    ) -> Optional[str]:
        """Why decoded ``ordinals`` are not the block at ``position``
        (count, first and last ordinal; in a first-only directory the
        last must only not pass its bound), or ``None``."""
        count, first = self.counts[position], self.firsts[position]
        if len(ordinals) != count or not count:
            return f"decoded to {len(ordinals)} tuples, directory says {count}"
        if ordinals[0] != first:
            return f"starts at ordinal {ordinals[0]}, directory says {first}"
        last, bound = ordinals[-1], self.lasts[position]
        if self.bounded and last > bound:
            return f"ends at ordinal {last}, past its bound {bound}"
        if not self.bounded and last != bound:
            return f"ends at ordinal {last}, directory says {bound}"
        return None

    def share(self, position: int, image: Sequence[int]) -> Sequence[int]:
        """The block's own ordinals in ``image``, the sorted ordinals of
        the whole file: counted from the nearest block ``q`` at or
        before it that no run straddles into (block 0 in a first-only
        directory), ``bisect_left(image, first[q])`` plus the counts of
        the blocks between."""
        anchor = position
        while anchor and self.lasts[anchor - 1] >= self.firsts[anchor]:
            anchor -= 1
        start = bisect_left(image, self.firsts[anchor])
        start += sum(self.counts[anchor:position])
        return image[start : start + self.counts[position]]

    def _first_reaching(self, ordinal: int) -> int:
        """Position of the first block whose ``last >= ordinal``.

        Every block before the last one starting below ``ordinal`` ends
        at or below that one's first ordinal, so below ``ordinal``.
        """
        position = max(bisect_left(self.firsts, ordinal) - 1, 0)
        if position < len(self.lasts) and self.lasts[position] < ordinal:
            position += 1
        return position

