"""Memory-mapped I/O: page faults, fault-around, and madvise.

mmap reads skip the syscall/copy path entirely — hits cost nothing — but
every non-resident page costs a fault.  Linux softens this with
fault-around (mapping ~16 resident-adjacent pages per fault) and by
running the same readahead engine on the fault path; ``madvise(RANDOM)``
disables both, which is why the paper's APPonly mmap numbers collapse
(Table 4).
"""

from __future__ import annotations

from typing import Generator

from repro.os.inode import Inode
from repro.os.vfs import VFS, File
from repro.storage.device import BLOCKING, PREFETCH

__all__ = ["MmapRegion"]

FAULT_AROUND_BLOCKS = 16


class MmapRegion:
    """One mapping of a whole file."""

    def __init__(self, vfs: VFS, file: File):
        self.vfs = vfs
        self.file = file
        self.inode: Inode = file.inode
        self.random_advice = False
        self.faults = 0
        self.minor_hits = 0

    def madvise_random(self) -> None:
        """madvise(MADV_RANDOM): single-page faults, no readahead."""
        self.random_advice = True
        self.file.ra.set_random()

    def access(self, offset: int, nbytes: int) -> Generator:
        """Load/store over [offset, offset+nbytes).

        Returns (hit_pages, fault_pages).  Resident pages cost nothing
        (no syscall, no copy); missing pages fault.
        """
        cfg = self.vfs.config
        inode = self.inode
        cache = inode.cache
        nbytes = min(nbytes, max(0, inode.size - offset))
        if nbytes <= 0:
            return (0, 0)
        b0 = offset // cfg.block_size
        count = inode.blocks_of(offset + nbytes) - b0

        missing = cache.missing_runs(b0, count)
        fault_pages = sum(n for _s, n in missing)
        hit_pages = count - fault_pages
        self.minor_hits += hit_pages
        inode.hit_pages += hit_pages
        inode.miss_pages += fault_pages
        self.vfs.registry.count("cache.demand_hits", hit_pages)
        self.vfs.registry.count("cache.demand_misses", fault_pages)
        cache.touch_range(b0, count)
        if not missing:
            return (hit_pages, 0)

        if self.random_advice:
            # One hard fault per missing page; no batching, no readahead.
            for run_start, run_len in missing:
                for blk in range(run_start, run_start + run_len):
                    self.faults += 1
                    yield self.vfs.sim.timeout(cfg.fault_overhead)
                    yield from self.vfs._fill_range(
                        inode, blk, 1, priority=BLOCKING,
                        honor_planned=True)
        else:
            # Fault-around: one fault per FAULT_AROUND_BLOCKS window,
            # plus the filemap readahead engine on the fault path.
            for run_start, run_len in missing:
                nfaults = (run_len + FAULT_AROUND_BLOCKS - 1) \
                    // FAULT_AROUND_BLOCKS
                self.faults += nfaults
                yield self.vfs.sim.timeout(nfaults * cfg.fault_overhead)
            plan = self.file.ra.on_demand_miss(b0, count, inode.nblocks)
            yield from self.vfs._fill_range(inode, b0, count,
                                            priority=BLOCKING,
                                            honor_planned=True)
            if plan.sync_count:
                self.vfs._spawn_fill(inode, plan.sync_start,
                                     plan.sync_count, priority=PREFETCH,
                                     tag="mmap_ra")
        return (hit_pages, fault_pages)
