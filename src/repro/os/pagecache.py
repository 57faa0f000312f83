"""Per-inode page cache: the simulated Xarray and its tree lock.

Linux keeps one radix tree (Xarray) per inode, guarded by a tree-wide
lock that both regular I/O and prefetch inserts take — the contention
source §3.2 of the paper measures.  This model keeps the residency truth
in a :class:`~repro.os.bitmap.BlockBitmap`, the tree-wide rw-lock as a
simulated :class:`~repro.sim.sync.RwLock` (category ``cache_tree``), and
chunk-granular LRU bookkeeping through the memory manager.

All methods here are *pure state transitions*; the VFS and Cross-OS
layers orchestrate lock acquisition and simulated CPU cost around them.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.os.bitmap import BlockBitmap
from repro.os.memory import MemoryManager
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.sync import RwLock

__all__ = ["PageCache"]


class _ChunkRange:
    """A contiguous (inode, chunk) key range, usable as a reclaim
    ``exclude`` set without materializing the keys.

    An insert always populates a contiguous chunk range, so protecting
    those chunks from the reclaim the insert itself triggers only needs
    membership and length — not a per-call temporary set.
    """

    __slots__ = ("inode_id", "first", "last")

    def __init__(self, inode_id: int, first: int, last: int):
        self.inode_id = inode_id
        self.first = first
        self.last = last

    def __contains__(self, key) -> bool:
        return key[0] == self.inode_id and self.first <= key[1] <= self.last

    def __len__(self) -> int:
        return self.last - self.first + 1

    def __iter__(self):
        inode_id = self.inode_id
        return iter((inode_id, chunk)
                    for chunk in range(self.first, self.last + 1))


class PageCache:
    """Residency, dirty state and LRU hooks for one inode."""

    def __init__(self, sim: Simulator, inode_id: int, nblocks: int,
                 mem: MemoryManager, registry: StatsRegistry):
        self.sim = sim
        self.inode_id = inode_id
        self.mem = mem
        self.registry = registry
        self.present = BlockBitmap(nblocks)
        self.dirty = BlockBitmap(nblocks)
        self.tree_lock = RwLock(sim, name=f"cache_tree[{inode_id}]",
                                stats=registry.lock_stats("cache_tree"))
        # PG_readahead marker: block index that triggers async readahead
        # when hit, or None.
        self.ra_marker: Optional[int] = None
        # Bumped by every call that frees pages (evictions) or adds new
        # ones (inserts): while neither moves, a reader's earlier
        # residency probe is still the answer.
        self.evictions = 0
        self.inserts = 0
        mem.register_cache(self)
        # Hooks fired as (start, nblocks) on insert/evict; Cross-OS uses
        # them to mirror residency into the exported bitmap.
        self.insert_hooks: list[Callable[[int, int], None]] = []
        self.evict_hooks: list[Callable[[int, int], None]] = []
        # Fired as (start, nblocks) for each *dirty* run an eviction is
        # about to clear.  Eviction counts dirty pages as written back
        # (see evict_chunk); the durability ledger needs to see those
        # implied writes or a crash model would silently lose them.
        self.dirty_evict_hooks: list[Callable[[int, int], None]] = []
        # Bound LRU entry points, hoisted once past the MemoryManager
        # delegation: touch/insert run for every chunk of every read.
        self._lru_inserted = mem.lru.inserted
        self._lru_touched = mem.lru.touched

    # -- geometry -----------------------------------------------------------

    @property
    def nblocks(self) -> int:
        return self.present.nblocks

    @property
    def cached_pages(self) -> int:
        return self.present.count_set()

    def resize(self, nblocks: int) -> None:
        present, dirty = self.present._count, self.dirty._count
        self.present.resize(nblocks)
        self.dirty.resize(nblocks)
        if self.present._count != present:
            self.evictions += 1
        self.mem.dirty_pages -= dirty - self.dirty._count

    def _chunks(self, start: int, count: int) -> Iterator[int]:
        cb = self.mem.chunk_blocks
        first = start // cb
        last = (start + count - 1) // cb
        return iter(range(first, last + 1))

    def resident_chunks(self) -> Iterator[int]:
        for run_start, run_len in self.present.set_runs(0, self.nblocks or 1):
            yield from self._chunks(run_start, run_len)

    # -- queries (caller holds tree read lock) --------------------------------

    def missing_runs(self, start: int, count: int) -> list[tuple[int, int]]:
        return self.present.missing_runs(start, count)

    def resident_count(self, start: int, count: int) -> int:
        return self.present.count_set(start, count)

    def all_resident(self, start: int, count: int) -> bool:
        return self.present.all_set(start, count)

    # -- mutation (caller holds tree write lock) ------------------------------

    def insert_range(self, start: int, count: int,
                     dirty: bool = False) -> int:
        """Mark blocks resident; returns the number of *new* pages.

        Charges the memory manager (which may trigger reclaim of other
        chunks) and registers LRU entries.
        """
        if count <= 0:
            return 0
        new_pages = self.present.set_range(start, count)
        if dirty:
            self.mem.dirty_pages += self.dirty.set_range(start, count)
        cb = self.mem.chunk_blocks
        first = start // cb
        last = (start + count - 1) // cb
        inode_id = self.inode_id
        lru_inserted = self._lru_inserted
        for chunk in range(first, last + 1):
            lru_inserted((inode_id, chunk))
        for hook in self.insert_hooks:
            hook(start, count)
        if new_pages > 0:
            self.inserts += 1
            # Protect the chunks this insert populated from the reclaim
            # it may trigger, or the filler would evict itself.
            self.mem.charge(new_pages,
                            exclude=_ChunkRange(inode_id, first, last))
        return new_pages

    def touch_range(self, start: int, count: int) -> None:
        """Record a cache hit for LRU aging (caller holds read lock)."""
        cb = self.mem.chunk_blocks
        first = start // cb
        last = (start + count - 1) // cb
        inode_id = self.inode_id
        if first == last:
            self._lru_touched((inode_id, first))
            return
        lru_touched = self._lru_touched
        for chunk in range(first, last + 1):
            lru_touched((inode_id, chunk))

    def evict_chunk(self, chunk: int) -> int:
        """Evict one LRU chunk; returns pages freed.

        Dirty pages in the chunk are counted as written back (the device
        write is the flusher's job; see VFS writeback).
        """
        cb = self.mem.chunk_blocks
        start = chunk * cb
        count = min(cb, max(0, self.nblocks - start))
        if count <= 0:
            self.mem.chunk_removed((self.inode_id, chunk))
            return 0
        freed = self.present.clear_range(start, count)
        if freed:
            self.evictions += 1
            self._note_dirty_evicted(start, count)
            self.mem.dirty_pages -= self.dirty.clear_range(start, count)
            self.mem.uncharge(freed)
            for hook in self.evict_hooks:
                hook(start, count)
            self.mem.notify_evicted(self.inode_id, start, count)
        self.mem.chunk_removed((self.inode_id, chunk))
        return freed

    def evict_range(self, start: int, count: int) -> int:
        """Evict an arbitrary block range (fadvise(DONTNEED) path)."""
        if count <= 0:
            return 0
        freed = self.present.clear_range(start, count)
        if freed == 0:
            return 0
        self.evictions += 1
        observer = self.registry.observer
        if observer is not None:
            observer.instant("pagecache", "evict", inode=self.inode_id,
                             block=start, pages=freed)
        self._note_dirty_evicted(start, count)
        self.mem.dirty_pages -= self.dirty.clear_range(start, count)
        self.mem.uncharge(freed)
        for hook in self.evict_hooks:
            hook(start, count)
        self.mem.notify_evicted(self.inode_id, start, count)
        cb = self.mem.chunk_blocks
        end = start + count
        for chunk in self._chunks(start, count):
            cstart = chunk * cb
            clen = min(cb, max(0, self.nblocks - cstart))
            # Only the two edge chunks can still hold pages.
            if clen <= 0 or start <= cstart and cstart + clen <= end \
                    or not self.present.any_set(cstart, clen):
                self.mem.chunk_removed((self.inode_id, chunk))
        return freed

    def _note_dirty_evicted(self, start: int, count: int) -> None:
        """Report the dirty runs an eviction is about to clear (no-op
        without registered hooks — the common case)."""
        if self.dirty_evict_hooks and self.dirty.any_set(start, count):
            for run_start, run_len in self.dirty.set_runs(start, count):
                for hook in self.dirty_evict_hooks:
                    hook(run_start, run_len)

    def clean_range(self, start: int, count: int) -> None:
        self.mem.dirty_pages -= self.dirty.clear_range(start, count)

    @property
    def dirty_pages(self) -> int:
        return self.dirty.count_set()
