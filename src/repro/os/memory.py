"""Global memory manager: page accounting and watermark reclaim.

The paper's motivation §3.3 is that Linux prefetches conservatively no
matter how much memory is free, and its key mechanism (§4.6) needs the
OS to expose *free memory* so CROSS-LIB can throttle aggressive
prefetching.  This manager is that source of truth: it charges page-cache
insertions, reclaims from the chunk LRU when the total would be
exceeded, and exposes free-page telemetry to ``readahead_info``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.os.lru import ChunkKey, ChunkLru, PerInodeLru

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.os.pagecache import PageCache

__all__ = ["MemoryManager"]


class MemoryManager:
    """Tracks page-cache memory for the whole simulated machine."""

    def __init__(self, total_pages: int, chunk_blocks: int = 32,
                 per_inode_lru: bool = False):
        if total_pages <= 0:
            raise ValueError(f"total_pages must be positive: {total_pages}")
        if chunk_blocks <= 0:
            raise ValueError(f"chunk_blocks must be positive: {chunk_blocks}")
        self.total_pages = total_pages
        self.chunk_blocks = chunk_blocks
        self.used_pages = 0
        self.lru = PerInodeLru() if per_inode_lru else ChunkLru()
        self._caches: dict[int, "PageCache"] = {}
        self.reclaimed_pages = 0
        self.reclaim_passes = 0
        # Span observer (repro.sim.observe.Observer) or None; reclaim
        # passes surface as instant events on the "memory" track.
        self.observer = None
        # Optional hook fired as (inode_id, block_start, nblocks) whenever
        # reclaim evicts pages — Cross-OS uses it to clear bitmap bits.
        self.evict_hooks: list[Callable[[int, int, int], None]] = []

    # -- registration ------------------------------------------------------

    def register_cache(self, cache: "PageCache") -> None:
        self._caches[cache.inode_id] = cache

    def forget_cache(self, inode_id: int) -> None:
        cache = self._caches.pop(inode_id, None)
        if cache is not None:
            for chunk in cache.resident_chunks():
                self.lru.removed((inode_id, chunk))

    # -- telemetry ---------------------------------------------------------

    @property
    def free_pages(self) -> int:
        return max(0, self.total_pages - self.used_pages)

    @property
    def free_fraction(self) -> float:
        return self.free_pages / self.total_pages

    # -- accounting (called by PageCache) ------------------------------------

    def charge(self, npages: int,
               exclude: Optional[set] = None) -> None:
        """Account freshly inserted pages, reclaiming if needed.

        ``exclude`` lists chunk keys the triggering insert just
        populated; reclaim must not pick them or the filler livelocks.
        """
        self.used_pages += npages
        if self.used_pages > self.total_pages:
            self.reclaim(self.used_pages - self.total_pages,
                         exclude=exclude)

    def uncharge(self, npages: int) -> None:
        self.used_pages -= npages
        if self.used_pages < 0:
            raise RuntimeError("page accounting went negative")

    def chunk_removed(self, key: ChunkKey) -> None:
        self.lru.removed(key)

    # -- reclaim -------------------------------------------------------------

    def reclaim(self, npages: int,
                exclude: Optional[set] = None) -> int:
        """Evict at least ``npages`` pages from the LRU; returns freed."""
        freed = 0
        self.reclaim_passes += 1
        while freed < npages:
            victim = self.lru.pop_victim(exclude=exclude)
            if victim is None:
                break  # nothing evictable; allow temporary overshoot
            inode_id, chunk = victim
            cache = self._caches.get(inode_id)
            if cache is None:
                continue
            freed += cache.evict_chunk(chunk)
        self.reclaimed_pages += freed
        if self.observer is not None:
            self.observer.instant("memory", "reclaim",
                                  requested=npages, freed=freed,
                                  used_pages=self.used_pages)
        return freed

    def notify_evicted(self, inode_id: int, start: int, nblocks: int) -> None:
        for hook in self.evict_hooks:
            hook(inode_id, start, nblocks)
