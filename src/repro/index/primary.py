"""The primary index of Figure 4.4: whole-tuple search keys over blocks.

The paper's primary B+ tree indexes the coded relation by *entire tuples*
(equivalently, by their phi ordinals — phi is order-preserving, so the
two are the same tree).  Each leaf entry maps the first tuple of a data
block to that block; locating a tuple is a floor search: the covering
block is the one whose first tuple is the largest not exceeding the
target.

Because the coded relation is phi-clustered, these keys answer both
point probes and range queries over the *leading* attribute prefix; every
other attribute needs the secondary index of Figure 4.5.  Tables plan
over :class:`~repro.storage.directory.BlockDirectory`, which holds the
same keys plus each block's last ordinal, so a range that starts at a
run of one tuple straddling a block boundary also reads the block that
ends with it.

:class:`TupleOrdinalIndex` is the finer-grained sibling the integrity
layer leans on: one entry per *distinct stored tuple* (with
multiplicity), so a corrupted block's exact contents can be
reconstructed from the index alone (docs/INTEGRITY.md).  Tables opt in
— the block-level index stays the default, matching the paper.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.phi import OrdinalMapper
from repro.errors import IndexError_
from repro.index.bptree import BPlusTree

__all__ = ["PrimaryIndex", "TupleOrdinalIndex"]

#: ``(block_id, sorted ordinals)`` per block.
Blocks = Iterable[Tuple[int, Sequence[int]]]


class PrimaryIndex:
    """B+ tree from block-first phi ordinals to stable disk block ids."""

    def __init__(self, mapper: OrdinalMapper, *, order: int = 32):
        self._mapper = mapper
        self._tree = BPlusTree(order)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        mapper: OrdinalMapper,
        directory: Iterable[Tuple[int, int]],
        *,
        order: int = 32,
    ) -> "PrimaryIndex":
        """Build from ``(first_ordinal, block_id)`` pairs."""
        idx = cls(mapper, order=order)
        for first_ordinal, block_id in directory:
            idx.add_block(first_ordinal, block_id)
        return idx

    def add_block(self, first_ordinal: int, block_id: int) -> None:
        """Register a data block by its first tuple's ordinal."""
        self._tree.insert(first_ordinal, block_id, replace=False)

    def move_block(self, old_first: int, new_first: int, block_id: int) -> None:
        """Re-key a block whose first tuple changed (front insert/delete)."""
        if old_first == new_first:
            self._tree.insert(new_first, block_id, replace=True)
            return
        if not self._tree.delete(old_first):
            raise IndexError_(f"no block keyed by ordinal {old_first}")
        self._tree.insert(new_first, block_id, replace=False)

    def remove_block(self, first_ordinal: int) -> None:
        """Deregister a (now empty) data block."""
        if not self._tree.delete(first_ordinal):
            raise IndexError_(f"no block keyed by ordinal {first_ordinal}")

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------

    def locate_ordinal(self, ordinal: int) -> Optional[int]:
        """Disk id of the block that can contain a tuple with this ordinal."""
        item = self._tree.floor_item(ordinal)
        if item is None:
            # The target precedes every block; only the first block can
            # receive it (relevant for inserts at the extreme low end).
            first = next(self._tree.items(), None)
            return None if first is None else first[1]
        return item[1]

    def locate(self, values: Sequence[int]) -> Optional[int]:
        """Disk id of the block that can contain this tuple (Figure 4.4)."""
        return self.locate_ordinal(self._mapper.phi(values))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Data blocks currently indexed."""
        return len(self._tree)

    @property
    def height(self) -> int:
        """Tree height — the paper's index-search I/O is one read per level."""
        return self._tree.height

    @property
    def tree(self) -> BPlusTree:
        """The underlying B+ tree (exposed for inspection and tests)."""
        return self._tree


class TupleOrdinalIndex:
    """B+ tree from each stored tuple's phi ordinal to its block.

    Every key is an ordinal actually stored in the file; the value is a
    list of ``[block_id, multiplicity]`` pairs — duplicates of one
    ordinal usually share a block, but a split can land copies either
    side of the cut, hence the list.  This is deliberately redundant
    with the data blocks: redundancy is the point.  When a block rots,
    :meth:`ordinals_for_block` recovers its exact logical contents, and
    the repair engine re-encodes them (docs/INTEGRITY.md).
    """

    def __init__(self, *, order: int = 32):
        self._tree = BPlusTree(order)
        self._num_entries = 0

    @classmethod
    def build(
        cls,
        blocks: Blocks,
        *,
        order: int = 32,
    ) -> "TupleOrdinalIndex":
        """Build from ``(block_id, sorted_ordinals)`` pairs.

        :meth:`~repro.storage.avqfile.AVQFile.iter_blocks` shape, but
        with ordinals — tables feed it one decoded block at a time.
        """
        idx = cls(order=order)
        for block_id, ordinals in blocks:
            for ordinal in ordinals:
                idx.add(ordinal, block_id)
        return idx

    def __len__(self) -> int:
        """Stored tuple entries, counting multiplicity."""
        return self._num_entries

    @property
    def num_ordinals(self) -> int:
        """Distinct ordinals indexed."""
        return len(self._tree)

    def add(self, ordinal: int, block_id: int) -> None:
        """Record one stored occurrence of ``ordinal`` in ``block_id``."""
        pairs: Optional[List[List[int]]] = self._tree.get(ordinal)
        if pairs is None:
            self._tree.insert(ordinal, [[block_id, 1]], replace=False)
        else:
            for pair in pairs:
                if pair[0] == block_id:
                    pair[1] += 1
                    break
            else:
                pairs.append([block_id, 1])
        self._num_entries += 1

    def remove(self, ordinal: int, block_id: int) -> None:
        """Forget one stored occurrence (the tuple was deleted)."""
        pairs: Optional[List[List[int]]] = self._tree.get(ordinal)
        if pairs is not None:
            for i, pair in enumerate(pairs):
                if pair[0] == block_id:
                    pair[1] -= 1
                    if pair[1] == 0:
                        pairs.pop(i)
                    if not pairs:
                        self._tree.delete(ordinal)
                    self._num_entries -= 1
                    return
        raise IndexError_(
            f"no indexed occurrence of ordinal {ordinal} in block "
            f"{block_id}"
        )

    def move(self, old_blocks: Blocks, new_blocks: Blocks) -> None:
        """Apply one block rewrite, ``(block_id, ordinals)`` pairs before
        and after (lists or int64 arrays; keys stay Python ints): only
        occurrences whose block changed move."""
        before = Counter((int(o), b) for b, run in old_blocks for o in run)
        after = Counter((int(o), b) for b, run in new_blocks for o in run)
        for ordinal, block_id in (before - after).elements():
            self.remove(ordinal, block_id)
        for ordinal, block_id in (after - before).elements():
            self.add(ordinal, block_id)

    def blocks_of(self, ordinal: int) -> List[Tuple[int, int]]:
        """``(block_id, multiplicity)`` pairs holding this ordinal."""
        pairs: Optional[List[List[int]]] = self._tree.get(ordinal)
        if pairs is None:
            return []
        return [(pair[0], pair[1]) for pair in pairs]

    def ordinals_for_block(self, block_id: int) -> List[int]:
        """A block's exact logical contents, multiplicity expanded.

        The repair feed: a sorted ordinal list identical to what the
        healthy block decoded to.  A full index scan — repair is rare
        and correctness beats speed here.
        """
        out: List[int] = []
        for ordinal, pairs in self._tree.items():
            for pair in pairs:
                if pair[0] == block_id:
                    out.extend([ordinal] * pair[1])
        return out

    def block_histogram(self) -> Dict[int, int]:
        """Tuple count per block id — a cheap index/directory cross-check."""
        hist: Dict[int, int] = {}
        for _ordinal, pairs in self._tree.items():
            for pair in pairs:
                hist[pair[0]] = hist.get(pair[0], 0) + pair[1]
        return hist

    @property
    def tree(self) -> BPlusTree:
        """The underlying B+ tree (exposed for inspection and tests)."""
        return self._tree
