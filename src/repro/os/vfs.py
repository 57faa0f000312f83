"""The virtual file system: files, reads/writes, and prefetch syscalls.

This module is the syscall surface every workload talks to.  It
orchestrates the page cache (lookups under the tree read lock, inserts
under the tree write lock), the stock readahead engine, writeback, and
the prefetch-related system calls the paper discusses:

* ``readahead(2)`` — blocking, clamped to 128 KB per call (the Fig. 1
  pathology);
* ``fadvise`` — SEQUENTIAL / RANDOM / NORMAL / WILLNEED / DONTNEED;
* ``fincore`` — cache-residency query that serializes on the mm lock and
  walks the cache tree (the expensive baseline §2.1 measures).

In-flight tracking: blocks being read from the device are marked in a
per-inode ``inflight`` bitmap so concurrent readers (and prefetchers)
never issue duplicate device I/O; a waiter sleeps on the inode's
condition until overlapping fills complete.  This is the page-lock
deduplication the kernel performs, and it is what lets a demand read
overlap with an in-flight prefetch instead of re-reading the blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, Optional

from repro.os.bitmap import BlockBitmap
from repro.os.config import KernelConfig
from repro.os.inode import Inode
from repro.os.memory import MemoryManager
from repro.os.readahead import ReadaheadState
from repro.sim.engine import Simulator
from repro.sim.faults import DeviceError
from repro.sim.stats import StatsRegistry
from repro.sim.sync import Condition, Lock
from repro.storage.device import BLOCKING, PREFETCH, StorageDevice

__all__ = [
    "FADV_DONTNEED",
    "FADV_NORMAL",
    "FADV_RANDOM",
    "FADV_SEQUENTIAL",
    "FADV_WILLNEED",
    "File",
    "ReadResult",
    "VFS",
]

FADV_NORMAL = "normal"
FADV_SEQUENTIAL = "sequential"
FADV_RANDOM = "random"
FADV_WILLNEED = "willneed"
FADV_DONTNEED = "dontneed"

_fd_ids = itertools.count(3)  # 0-2 are stdio, naturally


class ReadResult:
    """What a read() returned, for workload accounting.

    Hand-rolled instead of a dataclass: one is allocated per read().
    """

    __slots__ = ("nbytes", "hit_pages", "miss_pages")

    def __init__(self, nbytes: int, hit_pages: int, miss_pages: int):
        self.nbytes = nbytes
        self.hit_pages = hit_pages
        self.miss_pages = miss_pages

    def __repr__(self) -> str:
        return (f"ReadResult(nbytes={self.nbytes}, "
                f"hit_pages={self.hit_pages}, "
                f"miss_pages={self.miss_pages})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, ReadResult)
                and self.nbytes == other.nbytes
                and self.hit_pages == other.hit_pages
                and self.miss_pages == other.miss_pages)


class File:
    """An open file description: position + per-FD readahead state."""

    def __init__(self, inode: Inode, ra_pages: int,
                 fd: Optional[int] = None):
        self.fd = next(_fd_ids) if fd is None else fd
        self.inode = inode
        self.pos = 0
        self.ra = ReadaheadState(ra_pages)
        self.closed = False

    def __repr__(self) -> str:
        return f"File(fd={self.fd}, {self.inode.path!r}, pos={self.pos})"


class VFS:
    """The simulated VFS layer over one storage device."""

    def __init__(self, sim: Simulator, device: StorageDevice,
                 mem: MemoryManager, config: KernelConfig,
                 registry: StatsRegistry, *,
                 inode_id_start: int = 1):
        self.sim = sim
        self.device = device
        self.mem = mem
        self.config = config
        self.registry = registry
        self._inodes: dict[str, Inode] = {}
        self._by_id: dict[int, Inode] = {}
        self._dirty_inodes: set[int] = set()
        # fincore/mincore serialize on the process mm lock (§2.1).
        self.mm_lock = Lock(sim, name="mm", stats=registry.lock_stats("mm"))
        # The flusher sleeps on this condition when there is no dirty
        # data, so an idle kernel leaves the event heap empty and
        # Simulator.run() terminates naturally.
        self._wb_kick = Condition(sim, "writeback_kick")
        self._flusher_proc = sim.process(self._flusher(), name="flusher")
        # Per-kernel id streams keep identically-seeded runs identical.
        # A fleet host starts its stream at a disjoint base so inode
        # ids (= device stream ids) never collide across hosts sharing
        # one backend device.
        self._inode_ids = itertools.count(inode_id_start)
        self._fd_ids = itertools.count(3)  # 0-2 are stdio, naturally
        # Read-path counters, hoisted: three registry.count() dict
        # lookups per read add up to ~5% of an experiment's wall time.
        self._c_reads = registry.counter("syscalls.read")
        self._c_hits = registry.counter("cache.demand_hits")
        self._c_misses = registry.counter("cache.demand_misses")
        # I/O chunking geometry is config-fixed; computing it per fill
        # shows up in profiles at 78k+ calls per quick run.
        self._chunk_blocks = max(1, config.io_chunk_bytes // config.block_size)
        # Read-path cost constants, snapshotted: three config attribute
        # chases per read are measurable at 178k reads per quick run.
        self._cpu_syscall = config.syscall_overhead
        self._cpu_walk = config.tree_walk_per_block
        self._cpu_copy = config.copy_per_page
        # Span observer, snapshotted once.  The kernel attaches the
        # observer to the registry before building subsystems (the same
        # contract the sync primitives rely on), so the per-call
        # ``self.registry.observer`` hop is avoidable.
        self._observer = registry.observer

    # -- namespace ----------------------------------------------------------

    def create(self, path: str, size: int) -> Inode:
        """Create a file whose contents already exist on the device."""
        if path in self._inodes:
            raise FileExistsError(path)
        inode = Inode(self.sim, path, size, self.config.block_size,
                      self.mem, self.registry,
                      inode_id=next(self._inode_ids))
        self._inodes[path] = inode
        self._by_id[inode.id] = inode
        durable = self.device.durable
        if durable is not None:
            # Evicting a dirty page counts as writeback (see
            # PageCache.evict_chunk); the persistence ledger must see
            # those implied device writes or a crash would lose bytes
            # the model considers written.
            bs = self.config.block_size

            def _dirty_evicted(start: int, count: int,
                               _ino=inode, _d=durable, _bs=bs) -> None:
                nbytes = min(count * _bs, _ino.size - start * _bs)
                _d.note_write(_ino.id, start * _bs, nbytes)

            inode.cache.dirty_evict_hooks.append(_dirty_evicted)
        return inode

    def lookup(self, path: str) -> Inode:
        inode = self._inodes.get(path)
        if inode is None:
            raise FileNotFoundError(path)
        return inode

    def exists(self, path: str) -> bool:
        return path in self._inodes

    def unlink(self, path: str) -> None:
        inode = self._inodes.pop(path, None)
        if inode is None:
            raise FileNotFoundError(path)
        freed = inode.cache.cached_pages
        if freed:
            inode.cache.evict_range(0, inode.nblocks)
        self.mem.forget_cache(inode.id)
        self._by_id.pop(inode.id, None)
        self._dirty_inodes.discard(inode.id)
        self.device.forget_stream(inode.id)

    def paths(self) -> list[str]:
        return sorted(self._inodes)

    def open_sync(self, path: str) -> File:
        """Zero-cost open for experiment setup."""
        return File(self.lookup(path), self.config.ra_pages,
                    fd=next(self._fd_ids))

    def open(self, path: str) -> Generator:
        """open(2): returns a File after the syscall cost."""
        yield self.sim.timeout(self.config.syscall_overhead)
        self.registry.count("syscalls.open")
        return File(self.lookup(path), self.config.ra_pages,
                    fd=next(self._fd_ids))

    def close(self, file: File) -> Generator:
        yield self.sim.timeout(self.config.syscall_overhead)
        self.registry.count("syscalls.close")
        file.closed = True

    # -- read path ------------------------------------------------------------

    def read(self, file: File, offset: int, nbytes: int,
             parent=None) -> Generator:
        """pread(2).  Returns a :class:`ReadResult`."""
        inode = file.inode
        cache = inode.cache
        self._c_reads.value += 1
        # The syscall entry, pvec walk, and copy-out are accumulated and
        # charged in one timeout — fewer engine events, same total time.
        cpu = self._cpu_syscall
        avail = inode.size - offset
        if nbytes > avail:
            nbytes = avail
        if nbytes <= 0:
            yield self.sim.timeout(cpu)
            return ReadResult(0, 0, 0)
        bs = inode.block_size
        b0 = offset // bs
        count = (offset + nbytes + bs - 1) // bs - b0
        obs = self._observer
        span = obs.begin("vfs", "read", parent=parent, inode=inode.id,
                         block=b0, count=count) if obs is not None else None
        hit_pages = miss_pages = 0

        ev = inode.rwlock.acquire_read()
        if ev is not None:
            yield ev
        try:
            # Lookup under the cache-tree read lock (pvec walk).  Pages
            # already inserted by an in-flight fill count as *hits* (the
            # kernel finds them present-but-locked and waits), so misses
            # are only the blocks nobody has asked the device for.
            ev = cache.tree_lock.acquire_read()
            if ev is not None:
                yield ev
            cpu += count * self._cpu_walk
            uncovered = self._uncovered_runs(cache, inode.inflight, b0,
                                             count)
            marker = cache.ra_marker
            cache.tree_lock.release_read()

            if uncovered:
                miss_pages = sum(n for _s, n in uncovered)
                hit_pages = count - miss_pages
            else:
                hit_pages = count
            inode.hit_pages += hit_pages
            inode.miss_pages += miss_pages
            self._c_hits.value += hit_pages
            self._c_misses.value += miss_pages
            cache.touch_range(b0, count)

            ra = file.ra
            if self.device.qos is not None and ra.enabled:
                # Per-stream degradation: clamp the OS readahead window
                # while this FD's tenant is throttled (None otherwise).
                ra.degraded_cap = self.device.qos.window_cap(
                    inode.id, self.sim.now)
            if self.device.adaptive is not None and ra.enabled:
                # Learned policy layer: clamp the window while the
                # stream classifies temporal/random (None otherwise).
                ra.adaptive_cap = self.device.adaptive.window_cap(
                    inode.id, self.sim.now)
            if not ra.enabled:
                # Stock readahead off (CROSS-LIB owns this FD, or
                # FADV_RANDOM): the engine would only record the stream
                # position — do that without the call and the plan
                # object it allocates per read.
                ra.prev_end = b0 + count
            elif miss_pages:
                plan = ra.on_demand_miss(b0, count, inode.nblocks)
                if plan.sync_count:
                    if obs is not None:
                        obs.instant("readahead", "os_ra_sync",
                                    inode=inode.id, start=plan.sync_start,
                                    count=plan.sync_count,
                                    reason=plan.reason)
                    self._spawn_fill(inode, plan.sync_start, plan.sync_count,
                                     priority=BLOCKING, tag="os_ra_sync",
                                     parent=span)
                    cache.ra_marker = plan.marker
            else:
                file.ra.note_sequential_pos(b0, count)
                if marker is not None and b0 <= marker < b0 + count:
                    cache.ra_marker = None
                    plan = file.ra.on_marker_hit(marker, inode.nblocks)
                    if plan.sync_count:
                        if obs is not None:
                            obs.instant("readahead", "os_ra_async",
                                        inode=inode.id,
                                        start=plan.sync_start,
                                        count=plan.sync_count,
                                        reason=plan.reason)
                        self._spawn_fill(inode, plan.sync_start,
                                         plan.sync_count, priority=PREFETCH,
                                         tag="os_ra_async", parent=span)
                        cache.ra_marker = plan.marker
            cpu += count * self._cpu_copy
            yield self.sim.timeout(cpu)
            # Fill whatever is still missing and wait out in-flight
            # overlaps (the page-lock wait); fully-resident reads skip
            # the fill machinery entirely.
            if not cache.present.all_set(b0, count):
                yield from self._fill_range(inode, b0, count,
                                            priority=BLOCKING,
                                            honor_planned=True,
                                            parent=span)
        finally:
            inode.rwlock.release_read()
            if span is not None:
                span.end(hits=hit_pages, misses=miss_pages)
        return ReadResult(nbytes, hit_pages, miss_pages)

    def read_seq(self, file: File, nbytes: int) -> Generator:
        """read(2) at the current file position."""
        result = yield from self.read(file, file.pos, nbytes)
        file.pos += result.nbytes
        return result

    # -- write path --------------------------------------------------------------

    def write(self, file: File, offset: int, nbytes: int) -> Generator:
        """pwrite(2) into the page cache; writeback happens asynchronously."""
        cfg = self.config
        inode = file.inode
        cache = inode.cache
        yield self.sim.timeout(cfg.syscall_overhead)
        self.registry.count("syscalls.write")
        if nbytes <= 0:
            return 0
        yield inode.rwlock.acquire_write()
        try:
            end = offset + nbytes
            if end > inode.size:
                inode.set_size(end)
            b0 = offset // cfg.block_size
            count = inode.blocks_of(end) - b0
            yield cache.tree_lock.acquire_write()
            yield self.sim.timeout(count * cfg.tree_insert_per_block)
            cache.insert_range(b0, count, dirty=True)
            cache.tree_lock.release_write()
            self._dirty_inodes.add(inode.id)
            self._kick_writeback()
            yield self.sim.timeout(count * cfg.copy_per_page)
        finally:
            inode.rwlock.release_write()
        self.registry.count("write.bytes", nbytes)
        return nbytes

    def write_seq(self, file: File, nbytes: int) -> Generator:
        written = yield from self.write(file, file.pos, nbytes)
        file.pos += written
        return written

    def fsync(self, file: File) -> Generator:
        """Flush the file's dirty pages synchronously."""
        yield self.sim.timeout(self.config.syscall_overhead)
        self.registry.count("syscalls.fsync")
        yield from self._flush_inode(file.inode, priority=BLOCKING)
        # Flush barrier: everything the device write cache holds for
        # this stream is now persisted and acknowledged-durable.  A run
        # that failed to flush (blocking retries exhausted — practically
        # unreachable) was never reported to the ledger, so the barrier
        # cannot acknowledge bytes that did not reach the device.
        self.device.flush_stream(file.inode.id)

    # -- prefetch syscalls -----------------------------------------------------------

    def readahead(self, file: File, offset: int, nbytes: int) -> Generator:
        """readahead(2): blocking populate, clamped to the kernel cap.

        Returns the number of blocks actually submitted — which the real
        syscall does NOT report; applications assume the full range was
        prefetched (Fig. 1).
        """
        cfg = self.config
        inode = file.inode
        yield self.sim.timeout(cfg.syscall_overhead)
        self.registry.count("syscalls.readahead")
        b0 = offset // cfg.block_size
        want = inode.blocks_of(min(offset + nbytes, inode.size)) - b0
        count = min(want, cfg.ra_syscall_cap_blocks)
        if count <= 0:
            return 0
        obs = self._observer
        span = obs.begin("vfs", "readahead_syscall", inode=inode.id,
                         block=b0, count=count, clamped=want > count) \
            if obs is not None else None
        # Lookup under the tree read lock, like the kernel ra path.
        cache = inode.cache
        yield cache.tree_lock.acquire_read()
        yield self.sim.timeout(count * cfg.tree_walk_per_block)
        cache.tree_lock.release_read()
        yield from self._fill_range(inode, b0, count, priority=PREFETCH,
                                    prefetch=True, parent=span)
        if span is not None:
            span.end()
        return count

    def fadvise(self, file: File, advice: str, offset: int = 0,
                nbytes: int = 0) -> Generator:
        cfg = self.config
        inode = file.inode
        yield self.sim.timeout(cfg.syscall_overhead)
        self.registry.count("syscalls.fadvise")
        if advice == FADV_SEQUENTIAL:
            file.ra.set_sequential()
        elif advice == FADV_RANDOM:
            file.ra.set_random()
        elif advice == FADV_NORMAL:
            file.ra.set_normal()
        elif advice == FADV_WILLNEED:
            b0 = offset // cfg.block_size
            want = inode.blocks_of(min(offset + nbytes, inode.size)) - b0
            count = min(want, cfg.ra_syscall_cap_blocks)
            if count > 0:
                self._spawn_fill(inode, b0, count, priority=PREFETCH,
                                 tag="willneed", prefetch=True)
        elif advice == FADV_DONTNEED:
            b0 = offset // cfg.block_size
            if nbytes <= 0:
                count = inode.nblocks - b0
            else:
                count = inode.blocks_of(min(offset + nbytes, inode.size)) - b0
            if count > 0:
                cache = inode.cache
                yield cache.tree_lock.acquire_write()
                freed = cache.evict_range(b0, count)
                yield self.sim.timeout(freed * cfg.tree_walk_per_block)
                cache.tree_lock.release_write()
                self.registry.count("fadvise.dontneed_pages", freed)
        else:
            raise ValueError(f"unknown fadvise advice: {advice}")

    def fincore(self, file: File, offset: int = 0,
                nbytes: int = 0) -> Generator:
        """Cache residency query: walks the tree under the mm lock.

        Returns a snapshot :class:`BlockBitmap` of the queried range.
        Expensive by design — this is the baseline the paper rejects.
        """
        cfg = self.config
        inode = file.inode
        cache = inode.cache
        yield self.sim.timeout(cfg.syscall_overhead)
        self.registry.count("syscalls.fincore")
        b0 = offset // cfg.block_size
        if nbytes <= 0:
            count = inode.nblocks - b0
        else:
            count = inode.blocks_of(min(offset + nbytes, inode.size)) - b0
        count = max(0, count)
        obs = self._observer
        span = obs.begin("vfs", "fincore", inode=inode.id, block=b0,
                         count=count) if obs is not None else None
        yield self.mm_lock.acquire()
        try:
            yield cache.tree_lock.acquire_read()
            try:
                walk = cfg.fincore_base + count * cfg.fincore_per_block
                yield self.sim.timeout(walk)
                snapshot = BlockBitmap(inode.nblocks)
                window = cache.present.window(b0, count)
                snapshot.load_window(b0, count, window)
            finally:
                cache.tree_lock.release_read()
        finally:
            self.mm_lock.release()
            if span is not None:
                span.end()
        # Copying the residency vector out costs per-byte.
        yield self.sim.timeout(
            snapshot.export_nbytes(b0, count) * cfg.bitmap_copy_per_byte)
        return snapshot

    # -- fill machinery ------------------------------------------------------------

    def _spawn_fill(self, inode: Inode, start: int, count: int, *,
                    priority: int, tag: str, prefetch: bool = True,
                    parent=None) -> None:
        """Run a fill in the background (async readahead, WILLNEED)."""
        self.registry.count(f"fill.{tag}")
        gen = self._fill_range(inode, start, count, priority=priority,
                               prefetch=prefetch, parent=parent)
        if self.device.faults is not None:
            # A DeviceError escaping a detached background process would
            # crash the run loop; under fault injection an abandoned
            # readahead is routine, so absorb it here.
            gen = self._shielded_fill(gen)
        self.sim.process(gen, name=f"{tag}[{inode.id}:{start}+{count}]")

    def _shielded_fill(self, gen: Generator) -> Generator:
        try:
            yield from gen
        except DeviceError:
            self.registry.count("fill.failed_background")

    def _settle_one(self, ev) -> Generator:
        """Wait for one resilient device event; True on success.

        Never yields an already-processed event (its callbacks have run;
        subscribing again is an engine error)."""
        if ev._processed:
            return ev._ok
        try:
            yield ev
        except DeviceError:
            return False
        return True

    def _settle_chunks(self, events: list,
                       spans: list[tuple[int, int]]) -> Generator:
        """Wait out every chunk of a fill batch individually.

        ``all_of`` fails fast on the first failed chunk, which would
        leak the survivors; this returns (first_exc, succeeded_spans) so
        the caller can insert what did arrive and then propagate.
        """
        exc = None
        ok: list[tuple[int, int]] = []
        for ev, span in zip(events, spans):
            if ev._processed:
                if ev._ok:
                    ok.append(span)
                elif exc is None:
                    exc = ev._value
                continue
            try:
                yield ev
            except DeviceError as e:
                if exc is None:
                    exc = e
            else:
                ok.append(span)
        return exc, ok

    def _fill_range(self, inode: Inode, start: int, count: int, *,
                    priority: int, prefetch: bool = False,
                    wait: bool = True,
                    honor_planned: bool = False,
                    parent=None) -> Generator:
        """Ensure blocks [start, start+count) are resident.

        Deduplicates against concurrent fills through the inflight bitmap
        and returns the number of pages this call itself read from the
        device.  With ``honor_planned`` (the demand-read path), blocks a
        prefetch pipeline has claimed are waited for instead of re-read —
        the kernel's locked-page semantics.
        """
        cache = inode.cache
        inflight = inode.inflight
        planned = inode.planned if honor_planned else None
        cond = inode.fill_cond
        end = min(start + count, inode.nblocks)
        if end <= start:
            return 0
        count = end - start
        pages_read = 0
        while True:
            runs = self._uncovered_runs(cache, inflight, start, count,
                                        planned=planned)
            if runs:
                try:
                    pages_read += yield from self._fill_runs(
                        inode, runs, priority=priority, prefetch=prefetch,
                        parent=parent)
                except DeviceError:
                    if priority == BLOCKING:
                        # Blocking reads retry until the device recovers
                        # (the retry policy makes exhaustion here mean a
                        # persistent failure) — surface it to the caller.
                        raise
                    # A prefetch fill is best-effort: the blocks stay
                    # absent, in-flight markers were cleaned up by
                    # _fill_runs, and whoever actually needs the data
                    # demand-fetches it at blocking priority.
                    self.registry.count("prefetch.aborted_fills")
                    break
                continue
            if not wait or cache.present.all_set(start, count):
                break
            # Someone else is reading an overlapping range: wait for it.
            yield cond.wait()
            # If after one pipeline step our blocks are still only
            # *planned* (claimed by a prefetch whose pipeline has not
            # reached them), stop deferring and demand-fetch them at
            # blocking priority — the pipeline's per-chunk recheck skips
            # blocks that became resident, so nothing is read twice.
            # This is the kernel reality: a page the prefetcher has not
            # yet inserted is fetched by whoever faults on it first.
            planned = None
        return pages_read

    def _uncovered_runs(self, cache, inflight: BlockBitmap, start: int,
                        count: int,
                        planned: Optional[BlockBitmap] = None
                        ) -> list[tuple[int, int]]:
        missing = cache.present.missing_runs(start, count)
        if not missing:
            return missing
        # Nothing in flight (and nothing planned): the present-bitmap
        # gaps are the answer — skip the nested subtractions.
        if inflight._count == 0 and (
                planned is None or planned._count == 0):
            return missing
        runs: list[tuple[int, int]] = []
        for run_start, run_len in missing:
            for sub_start, sub_len in inflight.missing_runs(run_start,
                                                            run_len):
                if planned is None:
                    runs.append((sub_start, sub_len))
                else:
                    runs.extend(planned.missing_runs(sub_start, sub_len))
        return runs

    def _fill_runs(self, inode: Inode, runs: list[tuple[int, int]], *,
                   priority: int, prefetch: bool,
                   premarked: bool = False, parent=None) -> Generator:
        cfg = self.config
        cache = inode.cache
        inflight = inode.inflight
        cond = inode.fill_cond
        bs = cfg.block_size
        chunk_blocks = self._chunk_blocks
        obs = self._observer
        span = obs.begin("pagecache", "fill", parent=parent,
                         inode=inode.id, block=runs[0][0] if runs else 0,
                         runs=len(runs), prefetch=prefetch) \
            if obs is not None else None
        if not premarked:
            for run_start, run_len in runs:
                inflight.set_range(run_start, run_len)
        exc = None
        try:
            events = []
            spans = [] if self.device.faults is not None else None
            total_pages = 0
            for run_start, run_len in runs:
                pos = run_start
                while pos < run_start + run_len:
                    n = min(chunk_blocks, run_start + run_len - pos)
                    events.append(self.device.read(
                        pos * bs, n * bs, priority=priority,
                        stream=inode.id))
                    if spans is not None:
                        spans.append((pos, n))
                    pos += n
                    total_pages += n
            if prefetch:
                self.registry.count("prefetch.pages", total_pages)
            aud = self.sim.auditor
            if aud is not None:
                # Every device read the simulation issues flows through
                # this loop; the auditor balances it against the device's
                # own byte counter at final check.
                aud.count_fill_read(total_pages * bs)
            if spans is None:
                yield self.sim.all_of(events)
                ok_spans = None
            else:
                # Under fault injection chunks can fail independently;
                # settle each so the survivors still land in the cache.
                exc, ok_spans = yield from self._settle_chunks(events,
                                                               spans)
            # Insert under the tree write lock: this is where prefetch
            # and regular I/O contend in the baseline design.
            ev = cache.tree_lock.acquire_write()
            if ev is not None:
                yield ev
            if ok_spans is None:
                yield self.sim.timeout(
                    total_pages * cfg.tree_insert_per_block)
                for run_start, run_len in runs:
                    cache.insert_range(run_start, run_len)
                    if prefetch:
                        self._prefetched_mark(inode, run_start, run_len)
            else:
                inserted = sum(n for _s, n in ok_spans)
                yield self.sim.timeout(
                    inserted * cfg.tree_insert_per_block)
                for s, n in ok_spans:
                    cache.insert_range(s, n)
                    if prefetch:
                        self._prefetched_mark(inode, s, n)
            cache.tree_lock.release_write()
        finally:
            # On any exit — success, fault, or interrupt — the in-flight
            # markers are cleared and waiters woken, so an abandoned fill
            # can never wedge the readers queued behind it.
            for run_start, run_len in runs:
                inflight.clear_range(run_start, run_len)
            cond.notify_all()
            if span is not None:
                if exc is None:
                    span.end(pages=total_pages)
                else:
                    span.end(pages=total_pages, error=exc.code)
        if exc is not None:
            raise exc
        return total_pages

    def plan_runs(self, inode: Inode, runs: list[tuple[int, int]]) -> None:
        """Claim runs for an upcoming prefetch pipeline (call before
        spawning :meth:`prefetch_runs` so concurrent prefetchers dedup)."""
        planned = inode.planned
        for run_start, run_len in runs:
            planned.set_range(run_start, run_len)

    def prefetch_runs(self, inode: Inode,
                      runs: list[tuple[int, int]],
                      parent=None) -> Generator:
        """Chunk-pipelined prefetch of ``runs`` (already planned).

        Each 2 MB chunk is re-checked against residency/in-flight state
        just before its I/O is issued, so blocks a demand read fetched in
        the meantime are skipped, and demand reads never wait behind the
        whole request — only behind the chunk actually on the wire.
        """
        cfg = self.config
        cache = inode.cache
        inflight = inode.inflight
        planned = inode.planned
        cond = inode.fill_cond
        bs = cfg.block_size
        chunk_blocks = self._chunk_blocks
        obs = self._observer
        span = obs.begin("pagecache", "prefetch_pipeline", parent=parent,
                         inode=inode.id, runs=len(runs)) \
            if obs is not None else None
        total_pages = 0
        try:
            for run_start, run_len in runs:
                pos = run_start
                run_end = run_start + run_len
                while pos < run_end:
                    n = min(chunk_blocks, run_end - pos)
                    sub = self._uncovered_runs(cache, inflight, pos, n)
                    if sub:
                        pages = yield from self._fill_runs(
                            inode, sub, priority=PREFETCH, prefetch=True,
                            parent=span)
                        total_pages += pages
                    planned.clear_range(pos, n)
                    pos += n
        except DeviceError:
            # Abandon the rest of the pipeline: the finally below clears
            # every still-planned block so demand readers stop deferring
            # to a prefetch that is no longer coming.
            self.registry.count("prefetch.aborted_pipelines")
        finally:
            for run_start, run_len in runs:
                planned.clear_range(run_start, run_len)
            cond.notify_all()
            if span is not None:
                span.end(pages=total_pages)
        if total_pages:
            self.registry.count("prefetch.pipeline_pages", total_pages)
        return total_pages

    # Prefetch-usefulness tracking: blocks inserted by prefetch are
    # marked; a later demand hit consumes the mark.
    def _prefetched_mark(self, inode: Inode, start: int, count: int) -> None:
        bm = getattr(inode, "_prefetched_bm", None)
        if bm is None:
            bm = BlockBitmap(inode.nblocks)
            inode._prefetched_bm = bm
        bm.set_range(start, count)

    # -- writeback ----------------------------------------------------------------

    def _total_dirty(self) -> int:
        total = 0
        for inode_id in list(self._dirty_inodes):
            inode = self._inodes_by_id(inode_id)
            if inode is None:
                self._dirty_inodes.discard(inode_id)
                continue
            total += inode.cache.dirty_pages
        return total

    def _kick_writeback(self) -> None:
        if self._total_dirty() >= self.config.writeback_dirty_pages:
            self._wb_kick.notify_all()

    def _flusher(self) -> Generator:
        cfg = self.config
        while True:
            # Sleep until a writer crosses the dirty threshold.
            yield self._wb_kick.wait()
            while self._total_dirty() >= cfg.writeback_dirty_pages:
                budget = cfg.writeback_batch_pages
                for inode_id in list(self._dirty_inodes):
                    inode = self._inodes_by_id(inode_id)
                    if inode is None:
                        self._dirty_inodes.discard(inode_id)
                        continue
                    flushed = yield from self._flush_inode(
                        inode, priority=PREFETCH, max_pages=budget)
                    budget -= flushed
                    if budget <= 0:
                        break
                yield self.sim.timeout(cfg.writeback_interval)

    def _inodes_by_id(self, inode_id: int) -> Optional[Inode]:
        return self._by_id.get(inode_id)

    def _flush_inode(self, inode: Inode, *, priority: int,
                     max_pages: Optional[int] = None) -> Generator:
        cfg = self.config
        cache = inode.cache
        bs = cfg.block_size
        amp = self.device.fs.write_amplification
        obs = self._observer
        span = obs.begin("vfs", "writeback", inode=inode.id,
                         blocking=priority == BLOCKING) \
            if obs is not None else None
        flushed = 0
        events = []
        cleaned: list[tuple[int, int]] = []
        for run_start, run_len in list(cache.dirty.set_runs(0,
                                                            inode.nblocks)):
            if max_pages is not None and flushed >= max_pages:
                break
            if max_pages is not None:
                run_len = min(run_len, max_pages - flushed)
            events.append(self.device.write(
                run_start * bs, int(run_len * bs * amp),
                priority=priority, stream=inode.id))
            cleaned.append((run_start, run_len))
            flushed += run_len
        durable = self.device.durable
        if events:
            if self.device.faults is None:
                yield self.sim.all_of(events)
                for run_start, run_len in cleaned:
                    cache.clean_range(run_start, run_len)
                    if durable is not None:
                        durable.note_write(
                            inode.id, run_start * bs,
                            min(run_len * bs,
                                inode.size - run_start * bs))
            else:
                # Settle each run: a failed/timed-out flush keeps its
                # pages dirty so the next flusher pass retries them.
                failed_pages = 0
                for ev, (run_start, run_len) in zip(events, cleaned):
                    ok = yield from self._settle_one(ev)
                    if ok:
                        cache.clean_range(run_start, run_len)
                        if durable is not None:
                            # Ledger sees exact file bytes (not the
                            # amplified device bytes): the write reached
                            # the device cache, volatile until a
                            # barrier.  Failed runs stay dirty and are
                            # never reported.
                            durable.note_write(
                                inode.id, run_start * bs,
                                min(run_len * bs,
                                    inode.size - run_start * bs))
                    else:
                        failed_pages += run_len
                        flushed -= run_len
                if failed_pages:
                    self.registry.count("writeback.failed_pages",
                                        failed_pages)
            if cache.dirty_pages == 0:
                self._dirty_inodes.discard(inode.id)
        if span is not None:
            span.end(pages=flushed)
        self.registry.count("writeback.pages", flushed)
        return flushed

    # -- maintenance ------------------------------------------------------------------

    def drop_caches(self) -> None:
        """Evict every clean cached page (experiment reset)."""
        for inode in self._inodes.values():
            if inode.cache.cached_pages:
                inode.cache.evict_range(0, inode.nblocks)

    def shutdown(self) -> None:
        if self._flusher_proc.is_alive:
            self._flusher_proc.interrupt("shutdown")
