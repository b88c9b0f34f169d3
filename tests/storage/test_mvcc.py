"""Unit tests for the block-version store (the MVCC substrate)."""

import pytest

from repro.errors import CorruptionError, StorageError
from repro.storage.directory import BlockDirectory
from repro.storage.mvcc import BlockVersionStore

DIR_A = BlockDirectory.of([(0, 0, 9, 4), (1, 10, 19, 4)])
DIR_B = BlockDirectory.of([(0, 0, 9, 4), (2, 10, 24, 6)])


def make_store(directory=None):
    return BlockVersionStore(directory or DIR_A)


class TestWriterSide:
    def test_initial_state(self):
        store = make_store()
        assert store.csn == 0
        assert store.committed_directory() == DIR_A
        assert store.version_count == 0

    def test_stash_keeps_first_preimage_per_epoch(self):
        store = make_store()
        assert store.stash(1, lambda: b"committed")
        # Second overwrite of the same block before publish: the first
        # (committed) pre-image must win.
        assert not store.stash(1, lambda: b"uncommitted-intermediate")
        assert store.version_count == 1
        store.publish(DIR_B)
        # New epoch: stashing the block again is meaningful.
        assert store.stash(1, lambda: b"second-epoch")

    def test_publish_advances_csn_only_on_change(self):
        store = make_store()
        assert store.publish(DIR_A) == 0  # nothing changed
        live = BlockDirectory([0, 1], [0, 10], [9, 19], [4, 4])
        assert store.publish(live) == 0  # a file's list columns, same entries
        assert store.publish(DIR_B) == 1  # directory changed
        store.stash(0, lambda: b"old")
        assert store.publish(DIR_B) == 2  # open version sealed
        assert store.csn == 2

    def test_publish_seals_open_versions(self):
        store = make_store()
        s0 = store.snapshot()  # pin csn 0 so the sealed version survives
        store.stash(1, lambda: b"v0")
        # Before publish the overwrite is uncommitted: the snapshot at
        # csn 0 resolves block 1 to the stashed committed payload.
        assert store.read(1, s0.csn, lambda: b"dirty") == b"v0"
        store.publish(DIR_B)
        s1 = store.snapshot()
        # After publish a *new* snapshot sees the current payload.
        assert store.read(1, s1.csn, lambda: b"new") == b"new"
        # The pinned old snapshot still resolves to the sealed version.
        assert store.read(1, s0.csn, lambda: b"new") == b"v0"
        store.release(s0)
        store.release(s1)


class TestReaderSide:
    def test_snapshot_pins_and_release_unpins(self):
        store = make_store()
        s1 = store.snapshot()
        s2 = store.snapshot()
        assert store.pinned_snapshots == 2
        assert s1.csn == s2.csn == 0
        store.release(s1)
        store.release(s2)
        assert store.pinned_snapshots == 0

    def test_release_unknown_handle_raises(self):
        store = make_store()
        handle = store.snapshot()
        store.release(handle)
        with pytest.raises(StorageError):
            store.release(handle)

    def test_read_fallback_for_untouched_block(self):
        store = make_store()
        snap = store.snapshot()
        assert store.read(0, snap.csn, lambda: b"current") == b"current"
        assert store.stats.reads_from_current == 1
        store.release(snap)

    def test_read_prefers_stash_after_fallback_race(self):
        """A stash that lands while the fallback read is in flight wins."""
        store = make_store()
        snap = store.snapshot()

        def racing_fallback():
            # The writer overwrites the block *during* the reader's
            # fallback: stash first (as Table does), then return what
            # the disk now holds — the overwritten bytes.
            store.stash(0, lambda: b"committed")
            return b"overwritten"

        assert store.read(0, snap.csn, racing_fallback) == b"committed"
        store.release(snap)

    def test_read_resolves_checksum_race_from_stash(self):
        """A verified fallback that trips mid-overwrite defers to the
        stash; with no stash the corruption is real and surfaces."""
        store = make_store()
        snap = store.snapshot()

        def torn_fallback():
            store.stash(0, lambda: b"committed")
            raise CorruptionError("checksum mismatch", block_id=0)

        assert store.read(0, snap.csn, torn_fallback) == b"committed"
        assert store.stats.reads_from_stash == 1

        def rotted_fallback():
            raise CorruptionError("checksum mismatch", block_id=1)

        with pytest.raises(CorruptionError):
            store.read(1, snap.csn, rotted_fallback)
        store.release(snap)

    def test_handles_share_the_epochs_first_ordinals(self):
        store = make_store()
        s0 = store.snapshot()
        assert s0.directory.firsts == (0, 10)
        # frozen once per epoch, shared by every snapshot of it
        assert store.snapshot().directory is s0.directory
        store.publish(BlockDirectory.of([*DIR_B, (3, 25, 30, 2)]))
        assert store.snapshot().directory.firsts == (0, 10, 25)

    def test_old_snapshot_sees_old_chain(self):
        store = make_store()
        s0 = store.snapshot()
        store.stash(0, lambda: b"gen0")
        store.publish(DIR_B)  # csn 1
        s1 = store.snapshot()
        store.stash(0, lambda: b"gen1")
        store.publish(DIR_A)  # csn 2
        assert store.read(0, s0.csn, lambda: b"gen2") == b"gen0"
        assert store.read(0, s1.csn, lambda: b"gen2") == b"gen1"
        assert store.read(0, store.csn, lambda: b"gen2") == b"gen2"
        store.release(s0)
        store.release(s1)


class TestGarbageCollection:
    def test_versions_survive_while_pinned(self):
        store = make_store()
        snap = store.snapshot()
        store.stash(0, lambda: b"old")
        store.publish(DIR_B)
        assert store.version_count == 1  # snap at csn 0 still needs it
        store.release(snap)
        assert store.version_count == 0  # released -> pruned

    def test_unpinned_versions_prune_at_publish(self):
        store = make_store()
        store.stash(0, lambda: b"old")
        store.publish(DIR_B)
        # No snapshot was pinned below the new csn: pruned immediately.
        assert store.version_count == 0
        assert store.stats.versions_pruned == 1

    def test_pin_floor_holds_only_needed_versions(self):
        store = make_store()
        store.stash(0, lambda: b"gen0")
        store.publish(DIR_B)  # csn 1, gen0 pruned (nobody pinned)
        pinned = store.snapshot()  # pins csn 1
        store.stash(0, lambda: b"gen1")
        store.publish(DIR_A)  # csn 2, gen1 sealed at 2 > 1 -> retained
        store.stash(0, lambda: b"gen2")
        store.publish(DIR_B)  # csn 3, gen2 sealed at 3 > 1 -> retained
        assert store.version_count == 2
        store.release(pinned)
        assert store.version_count == 0
