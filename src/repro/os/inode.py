"""In-core inode: file metadata plus its cache and locks."""

from __future__ import annotations

import itertools
from typing import Optional

from repro.os.bitmap import BlockBitmap
from repro.os.memory import MemoryManager
from repro.os.pagecache import PageCache
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.sync import Condition, RwLock

__all__ = ["Inode"]

_ids = itertools.count(1)


class Inode:
    """One file's kernel-side identity.

    Holds the per-inode rw-lock (``inode rw-lock`` in the paper — shared
    by readers, exclusive for writers/truncate) and the page cache.
    Cross-OS attaches its exported cache bitmap lazily via
    :class:`repro.os.crossos.CrossOS`.
    """

    def __init__(self, sim: Simulator, path: str, size: int,
                 block_size: int, mem: MemoryManager,
                 registry: StatsRegistry,
                 inode_id: Optional[int] = None):
        if size < 0:
            raise ValueError(f"negative file size: {size}")
        # The VFS hands out per-kernel ids so two identically-seeded
        # runs produce identical id streams (and thus identical traces);
        # the process-global counter is only a fallback for direct
        # construction in tests.
        self.id = next(_ids) if inode_id is None else inode_id
        self.path = path
        self.size = size
        self.block_size = block_size
        self.cache = PageCache(sim, self.id, self.blocks_of(size),
                               mem, registry)
        self.rwlock = RwLock(sim, name=f"inode[{self.id}]",
                             stats=registry.lock_stats("inode"))
        # Fill-path state: blocks with device I/O in progress, blocks a
        # prefetch pipeline has claimed but not reached yet (demand reads
        # wait on them for one pipeline step, then fetch them at blocking
        # priority), and the condition fill waiters sleep on.
        self.inflight = BlockBitmap(self.blocks_of(size))
        self.planned = BlockBitmap(self.blocks_of(size))
        self.fill_cond = Condition(sim, f"fill[{self.id}]")
        # Per-inode telemetry Cross-OS exports (§4.4): demand hits/misses.
        self.hit_pages = 0
        self.miss_pages = 0
        # Set by CrossOS.attach(); None when CrossPrefetch is disabled.
        self.cross: Optional[object] = None

    @property
    def nblocks(self) -> int:
        return self.blocks_of(self.size)

    def blocks_of(self, nbytes: int) -> int:
        if nbytes <= 0:
            return 0
        return (nbytes + self.block_size - 1) // self.block_size

    def set_size(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"negative file size: {size}")
        self.size = size
        self.cache.resize(self.nblocks)
        self.inflight.resize(self.nblocks)
        self.planned.resize(self.nblocks)

    def __repr__(self) -> str:
        return f"Inode({self.id}, {self.path!r}, {self.size}B)"
