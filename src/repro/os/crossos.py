"""Cross-OS: exported cache state and the ``readahead_info`` syscall.

This is the kernel half of CrossPrefetch (§4.4, §4.7):

* a per-inode **cache-state bitmap**, mirrored from the page cache on
  every insert/evict, guarded by its own rw-lock so prefetch lookups do
  not touch the cache-tree lock (the *delineated path*);
* the multi-purpose **readahead_info** system call, which in one trip
  (1) checks the bitmap fast path for the requested range, (2) issues
  prefetch I/O for the missing runs only, (3) exports a bitmap window to
  user space, and (4) exports telemetry: per-file cached pages, demand
  hits/misses, and free memory;
* **relaxed prefetch limits** — requests up to ``cross_max_request_bytes``
  (64 MB), split into 2 MB device I/Os by the VFS chunking rule.

Unlike ``readahead(2)``, the call *reports what actually happened*, which
is the visibility that lets CROSS-LIB skip redundant prefetch syscalls.

Public entry points
-------------------

* :meth:`CrossOS.attach` / :meth:`CrossOS.detach` — wire a
  :class:`CrossState` (bitmap + rw-lock, mirror hooks into the page
  cache) onto an inode;
* :meth:`CrossOS.readahead_info` — the syscall itself (a simulation
  process: drive with ``yield from`` or ``sim.process``);
* :meth:`CrossOS.evict_range` — ``fadvise(DONTNEED)`` through Cross-OS
  accounting, used by CROSS-LIB aggressive reclaim.

Admission control
-----------------

``readahead_info`` is also where degradation and multi-tenant QoS
admission act on the prefetch stream:

* with no QoS manager, the *global* device
  :class:`~repro.sim.faults.DegradeController` clamps relaxed requests
  to ``cross_degraded_request_bytes`` (level 1) or skips submission
  entirely (level 2);
* with a QoS manager attached (``kernel.qos``), the clamp is
  **per-tenant** — only streams of the degraded tenant are clamped or
  paused — and the missing runs are additionally trimmed to the
  tenant's token-bucket byte budget
  (:meth:`repro.sim.qos.QosManager.trim_runs`).

Invariants the auditor checks here (``repro.sim.audit``): the exported
bitmap must mirror page-cache residency exactly (``check_mirror`` on
every insert/evict hook), and every block counted in
``cross.prefetch_blocks`` is attributed to exactly one tenant when QoS
is on (Σ per-tenant ``admitted_blocks`` equals that counter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.os.bitmap import BlockBitmap
from repro.os.inode import Inode
from repro.os.vfs import VFS, File
from repro.sim.sync import RwLock

__all__ = ["CacheInfo", "CrossOS", "CrossState"]


@dataclass
class CacheInfo:
    """The ``info`` structure passed to/from ``readahead_info``.

    Request fields are set by the caller; reply fields by the kernel.
    """

    # -- request ------------------------------------------------------------
    offset: int = 0                 # bytes
    nbytes: int = 0
    fetch_bitmap_only: bool = False  # control plane: no prefetch, just state
    # Control plane (§4.4): mark the file so the kernel ignores further
    # prefetch submissions for it (None = leave as is).
    set_prefetch_disabled: Optional[bool] = None
    max_request_bytes: Optional[int] = None  # relax the per-call cap (§4.7)
    # Selective bitmap copy (§4.4): (block_start, block_count); defaults
    # to the requested range.
    bitmap_window: Optional[tuple[int, int]] = None

    # -- reply ---------------------------------------------------------------
    bitmap_bits: int = 0
    bitmap_start: int = 0
    bitmap_count: int = 0
    cached_pages: int = 0            # resident/in-flight pages in range
    prefetch_submitted: int = 0      # blocks this call sent to the device
    truncated: bool = False          # request exceeded the per-call cap
    prefetch_disabled: bool = False  # the file's current control state
    file_cached_pages: int = 0       # telemetry: whole-file residency
    free_pages: int = 0
    total_pages: int = 0
    hit_pages: int = 0               # per-inode demand hits to date
    miss_pages: int = 0
    # Fires when the prefetch submitted by this call has fully landed
    # (kernel-internal convenience for worker pacing; already triggered
    # when nothing was submitted).
    completion: object = None


class CrossState:
    """Per-inode Cross-OS state: the exported bitmap and its lock."""

    def __init__(self, vfs: VFS, inode: Inode, shift: int):
        self.inode = inode
        self.prefetch_disabled = False
        self.bitmap = BlockBitmap(inode.nblocks, shift=shift)
        self.lock = RwLock(vfs.sim, name=f"inode_bitmap[{inode.id}]",
                           stats=vfs.registry.lock_stats("inode_bitmap"))
        # Seed from current residency, then mirror via hooks.
        for start, count in inode.cache.present.set_runs(0, inode.nblocks):
            self.bitmap.set_range(start, count)
        inode.cache.insert_hooks.append(self._on_insert)
        inode.cache.evict_hooks.append(self._on_evict)

    def _on_insert(self, start: int, count: int) -> None:
        if self.bitmap.nblocks < self.inode.nblocks:
            self.bitmap.resize(self.inode.nblocks)
        self.bitmap.set_range(start, count)
        aud = self.inode.cache.sim.auditor
        if aud is not None:
            aud.check_mirror(self, start, count)

    def _on_evict(self, start: int, count: int) -> None:
        self.bitmap.clear_range(start, count)
        aud = self.inode.cache.sim.auditor
        if aud is not None:
            aud.check_mirror(self, start, count)


class CrossOS:
    """The kernel-side CrossPrefetch component, attached to a VFS."""

    def __init__(self, vfs: VFS):
        self.vfs = vfs
        self.config = vfs.config
        self._states: dict[int, CrossState] = {}

    def attach(self, inode: Inode) -> CrossState:
        state = self._states.get(inode.id)
        if state is None:
            state = CrossState(self.vfs, inode,
                               self.config.cross_bitmap_shift)
            self._states[inode.id] = state
            inode.cross = state
        return state

    def state(self, inode: Inode) -> CrossState:
        return self.attach(inode)

    def detach(self, inode: Inode) -> None:
        self._states.pop(inode.id, None)
        inode.cross = None

    # -- the system call ----------------------------------------------------

    def readahead_info(self, file: File, info: CacheInfo) -> Generator:
        """The multi-purpose prefetch + cache-state-export syscall.

        Prefetch I/O is *submitted* (on the delineated prefetch path) but
        not waited for; the exported bitmap counts submitted blocks as
        present so the caller will not re-request them.
        """
        cfg = self.config
        vfs = self.vfs
        sim = vfs.sim
        inode = file.inode
        state = self.state(inode)
        obs = vfs._observer
        span = obs.begin("crossos", "readahead_info", inode=inode.id,
                         offset=info.offset, nbytes=info.nbytes,
                         bitmap_only=info.fetch_bitmap_only) \
            if obs is not None else None
        yield sim.timeout(cfg.syscall_overhead)
        vfs.registry.count("syscalls.readahead_info")

        if info.set_prefetch_disabled is not None:
            state.prefetch_disabled = info.set_prefetch_disabled

        cap = info.max_request_bytes or cfg.cross_max_request_bytes
        cap = min(cap, cfg.cross_max_request_bytes)
        # Graceful degradation under fault pressure: while throttled,
        # relaxed multi-MB requests shrink to the conservative window;
        # while paused, the syscall still serves bitmap + telemetry but
        # submits no prefetch at all.  With a QoS manager the level is
        # the *stream's tenant's* — co-tenants on healthy regions keep
        # their relaxed windows (the global clamp was the unfairness
        # this fixes); otherwise the device-global controller decides.
        degrade_paused = False
        qos = vfs.device.qos
        if qos is not None:
            level = qos.level_of(inode.id, sim.now)
            if level >= 2:
                degrade_paused = True
                vfs.registry.count("cross.degraded_skips")
            elif level == 1 and cap > cfg.cross_degraded_request_bytes:
                cap = cfg.cross_degraded_request_bytes
                vfs.registry.count("cross.degraded_clamps")
        else:
            degrade = vfs.device.degrade
            if degrade is not None:
                level = degrade.current_level(sim.now)
                if level >= 2:
                    degrade_paused = True
                    vfs.registry.count("cross.degraded_skips")
                elif level == 1 and cap > cfg.cross_degraded_request_bytes:
                    cap = cfg.cross_degraded_request_bytes
                    vfs.registry.count("cross.degraded_clamps")
        adaptive = vfs.device.adaptive
        if adaptive is not None:
            # Learned policy layer: the per-call cap becomes per-stream
            # — temporal/random-classified streams are clamped to their
            # pattern-class budget while sequential streams keep the
            # full relaxed cap (repro.crosslib.adaptive).
            cap = adaptive.request_cap(inode.id, cap, cfg.block_size,
                                       sim.now)
        nbytes = min(info.nbytes, max(0, inode.size - info.offset))
        if nbytes > cap:
            nbytes = cap
            info.truncated = True
        b0 = info.offset // cfg.block_size
        count = inode.blocks_of(info.offset + nbytes) - b0
        count = max(0, min(count, inode.nblocks - b0))

        # Fast path: bitmap lookup under the bitmap rw-lock; the cache
        # tree lock is never taken for the lookup (delineated path).
        ev = state.lock.acquire_read()
        if ev is not None:
            yield ev
        yield sim.timeout(cfg.bitmap_op)
        inflight = inode.inflight
        planned = inode.planned
        missing: list[tuple[int, int]] = []
        if count > 0:
            missing = state.bitmap.missing_runs(b0, count)
            # Subtract in-flight and planned blocks only when either
            # bitmap has bits at all — both empty is the common case,
            # and the nested subtraction is O(runs^2) in the worst case.
            if missing and (inflight.count_set() or planned.count_set()):
                subtracted: list[tuple[int, int]] = []
                for run_start, run_len in missing:
                    for mid_start, mid_len in inflight.missing_runs(
                            run_start, run_len):
                        subtracted.extend(planned.missing_runs(mid_start,
                                                               mid_len))
                missing = subtracted
        state.lock.release_read()

        # cached_pages reports residency, so it is computed from the
        # pre-admission miss total: blocks the token bucket trims away
        # below are still absent from the cache.
        missing_total = sum(n for _s, n in missing)
        submitted = 0
        if missing and not info.fetch_bitmap_only \
                and not state.prefetch_disabled and not degrade_paused:
            if qos is not None:
                # Token-bucket admission: trim this submission to the
                # tenant's remaining byte budget (block-granular).
                missing = qos.trim_runs(inode.id, missing,
                                        cfg.block_size, sim.now)
            submitted = sum(n for _s, n in missing)
        if submitted:
            vfs.registry.count("cross.prefetch_blocks", submitted)
            # Claim the runs before yielding so a concurrent caller in
            # the same instant cannot double-submit the same blocks.
            vfs.plan_runs(inode, missing)
            info.completion = sim.process(
                self._prefetch(inode, missing, parent=span),
                name=f"cross_prefetch[{inode.id}:{b0}+{count}]")
        else:
            done = sim.event()
            done.succeed()
            info.completion = done

        # Export the bitmap window (selective copy) and telemetry.
        win_start, win_count = info.bitmap_window or (b0, count)
        win_count = max(0, min(win_count, inode.nblocks - win_start))
        window = state.bitmap.window(win_start, win_count)
        window |= inflight.window(win_start, win_count)
        window |= planned.window(win_start, win_count)
        if submitted:
            sub_bm = BlockBitmap(inode.nblocks, shift=state.bitmap.shift)
            for run_start, run_len in missing:
                sub_bm.set_range(run_start, run_len)
            window |= sub_bm.window(win_start, win_count)
        copy_bytes = state.bitmap.export_nbytes(win_start, win_count)
        yield sim.timeout(cfg.bitmap_op + copy_bytes * cfg.bitmap_copy_per_byte)

        info.bitmap_bits = window
        info.bitmap_start = win_start
        info.bitmap_count = win_count
        info.cached_pages = count - missing_total if count > 0 else 0
        info.prefetch_submitted = submitted
        info.file_cached_pages = inode.cache.cached_pages
        info.free_pages = vfs.mem.free_pages
        info.total_pages = vfs.mem.total_pages
        info.hit_pages = inode.hit_pages
        info.miss_pages = inode.miss_pages
        info.prefetch_disabled = state.prefetch_disabled
        if span is not None:
            span.end(submitted=submitted, cached=info.cached_pages)
        return info

    def _prefetch(self, inode: Inode,
                  runs: list[tuple[int, int]],
                  parent=None) -> Generator:
        """Delineated prefetch path: PREFETCH-priority device reads, one
        batched cache insert, one batched bitmap update."""
        cfg = self.config
        state = self.state(inode)
        obs = self.vfs.registry.observer
        span = obs.begin("crossos", "prefetch", parent=parent,
                         inode=inode.id,
                         blocks=sum(n for _s, n in runs)) \
            if obs is not None else None
        pages = yield from self.vfs.prefetch_runs(inode, runs, parent=span)
        # Bitmap updated once after completing the entire walk (§4.4);
        # the mirror hooks did the state change, this charges the cost.
        yield state.lock.acquire_write()
        yield self.vfs.sim.timeout(cfg.bitmap_op)
        state.lock.release_write()
        if span is not None:
            span.end(pages=pages)
        self.vfs.registry.count("cross.prefetched_pages", pages)
        return pages

    # -- eviction helper (used by CROSS-LIB aggressive reclaim) ----------------

    def evict_range(self, file: File, offset: int,
                    nbytes: int) -> Generator:
        """fadvise(DONTNEED) through the Cross-OS accounting."""
        result = yield from self.vfs.fadvise(
            file, "dontneed", offset, nbytes)
        return result
