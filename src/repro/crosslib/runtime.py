"""The CROSS-LIB runtime facade (§4.3).

Applications link against this the way the paper's artifact LD_PRELOADs
its shim: every POSIX call goes through here.  On each read/write the
runtime feeds the per-FD predictor, consults the user-space bitmap (via
the range tree) to decide whether anything actually needs prefetching,
and enqueues block ranges to the background worker pool — which is the
whole point: the expensive syscall (``readahead_info``) happens off the
application thread, and only for blocks the user-space bitmap says are
not already cached or requested.
"""

from __future__ import annotations

from typing import Generator, Iterator, Optional

from repro.crosslib.config import CrossLibConfig
from repro.crosslib.fdtable import UserFd, UserFileState
from repro.crosslib.membudget import MemoryBudget
from repro.crosslib.predictor import PrefetchPlan
from repro.crosslib.workers import PrefetchRequest, WorkerPool
from repro.os.crossos import CacheInfo
from repro.os.kernel import Kernel
from repro.runtimes.base import Handle, IORuntime, MmapHandle
from repro.sim.sync import Condition

__all__ = ["CrossLibRuntime"]


class CrossLibRuntime(IORuntime):
    name = "CrossPrefetch"

    def __init__(self, kernel: Kernel,
                 config: Optional[CrossLibConfig] = None):
        super().__init__(kernel)
        if kernel.cross is None:
            raise ValueError(
                "CrossLibRuntime needs a kernel with cross_enabled=True")
        self.crossos = kernel.cross
        self.config = config or CrossLibConfig()
        self.registry = kernel.registry
        self.block_size = kernel.config.block_size
        self._states: dict[int, UserFileState] = {}
        self.budget = MemoryBudget(self, self.config)
        self.budget.update(kernel.mem.free_pages, kernel.mem.total_pages)
        self.workers = WorkerPool(self)
        self._watchers: list = []
        self._budget_tick = 0
        # Span observer snapshot (same wiring contract as the VFS: the
        # kernel attaches it before runtimes are constructed).
        self._observer = kernel.registry.observer
        # Config flags are fixed after construction; snapshot the ones
        # the pread hot path branches on.
        self._predict = self.config.predict
        self._aggressive = self.config.aggressive
        self._bulk_eligible = self.config.aggressive \
            and not self.config.fetchall
        # Fault-pressure controller (None on a healthy device): while it
        # is throttled the library stops asking for relaxed windows and
        # suspends opportunistic bulk loading.  With a QoS manager the
        # check is per-tenant (only the faulted tenant's streams are
        # throttled); otherwise the device-global controller applies.
        self._degrade = kernel.device.degrade
        self._qos = kernel.device.qos
        # Learned adaptive policy (None unless Kernel(adaptive=...)):
        # pattern classification, plan shaping/admission, and hit/miss
        # training feedback all hang off the pread path below.
        self._adaptive = kernel.device.adaptive

    # -- helpers ----------------------------------------------------------------

    def iter_states(self) -> Iterator[UserFileState]:
        return iter(self._states.values())

    def _state_for(self, handle_file) -> UserFileState:
        return self._state_for_inode(handle_file.inode)

    def _state_for_inode(self, inode) -> UserFileState:
        state = self._states.get(inode.id)
        if state is None:
            prefetch_file = self.vfs.open_sync(inode.path)
            prefetch_file.ra.enabled = False
            state = UserFileState(self.sim, self.registry, inode,
                                  prefetch_file, self.config)
            self._states[inode.id] = state
        return state

    def prime(self, path: str, start: int, count: int,
              chunk_bytes: Optional[int] = None) -> Generator:
        """Queue a block range of ``path`` for background prefetch.

        The public priming entry point used by repair/recovery scans
        (:mod:`repro.crosslib.repair`): no open FD or predictor state is
        needed — the range goes straight through the user bitmap check
        to the worker pool, so only uncached, unrequested runs generate
        ``readahead_info`` syscalls.
        """
        inode = self.vfs.lookup(path)
        state = self._state_for_inode(inode)
        yield from self._enqueue_range(state, start, count,
                                       chunk_bytes=chunk_bytes)

    # -- policy hooks ----------------------------------------------------------------

    def _on_open(self, handle: Handle) -> Generator:
        # CROSS-LIB owns prefetching for this FD; stock readahead off.
        handle.file.ra.enabled = False
        state = self._state_for(handle.file)
        state.note_open(self.sim.now)
        handle.ufd = UserFd(state, handle.file, self.config)
        cfg = self.config
        if cfg.fetchall and not state.fetchall_done:
            state.fetchall_done = True
            state.bulk_cursor = state.nblocks
            yield from self._enqueue_range(state, 0, state.nblocks,
                                           chunk_bytes=cfg.fetchall_chunk_bytes)
        elif cfg.aggressive and not state.initial_prefetch_done \
                and self.budget.allow_aggressive:
            # Optimistic open-time prefetch (§4.6): assume sequential.
            state.initial_prefetch_done = True
            blocks = cfg.aggressive_initial_bytes // self.block_size
            yield from self._enqueue_range(state, 0,
                                           min(blocks, state.nblocks))

    def _on_close(self, handle: Handle) -> Generator:
        ufd: UserFd = handle.ufd
        ufd.state.note_close(self.sim.now)
        return
        yield  # pragma: no cover - generator marker

    # -- data path ----------------------------------------------------------------------

    def pread(self, handle: Handle, offset: int,
              nbytes: int) -> Generator:
        ufd: UserFd = handle.ufd
        state = ufd.state
        state.last_access = self.sim.now
        if self._aggressive:
            self._budget_pulse()
        bs = self.block_size
        b0 = offset // bs
        state.last_block = b0
        inode = state.inode
        end = offset + nbytes
        if end > inode.size:
            end = inode.size
        count = (end + bs - 1) // bs - b0 if end > 0 else 0
        if count < 1:
            count = 1
        obs = self._observer
        span = obs.begin("crosslib", "pread", inode=inode.id,
                         block=b0, count=count) if obs is not None else None

        adaptive = self._adaptive
        if self._predict:
            ufd.predictor.observe(b0, count)
            if adaptive is not None:
                cfg = self.config
                adaptive.observe(inode.id, b0, count,
                                 ufd.predictor.counter, cfg.counter_max)
                # Classified-sequential streams earn the relaxed window
                # scaling sooner than the static streak threshold.
                ufd.predictor.streak_override = adaptive.relax_streak(
                    inode.id, cfg.streak_threshold)
            # §4.6: prefetch aggressiveness adapts to the budget — under
            # memory pressure the relaxed (beyond-128KB) window scaling
            # is withheld, not just the on/off switch.
            relaxed = self.config.relax_limits and (
                not self._aggressive
                or self.budget.allow_aggressive)
            if relaxed:
                if self._qos is not None:
                    if self._qos.level_of(inode.id, self.sim.now) >= 1:
                        # This stream's tenant is absorbing faults: fall
                        # back to conservative windows until it recovers
                        # (co-tenants keep their relaxed windows).
                        relaxed = False
                elif self._degrade is not None \
                        and self._degrade.current_level(self.sim.now) >= 1:
                    # Device under fault pressure: fall back to
                    # conservative windows until the controller recovers.
                    relaxed = False
            plan = ufd.predictor.plan(state.nblocks, relaxed)
            if plan is not None and adaptive is not None:
                # Per-class sizing (boost sequential, clamp temporal/
                # random) + the perceptron issue gate.
                plan = adaptive.gate_plan(inode.id, plan, state.nblocks)
            if plan is not None and self._plan_due(ufd, plan, b0, count):
                yield from self._maybe_enqueue(state, plan)
        # Guard repeated in-line: _maybe_bulk_load's first two early
        # returns, checked here to skip the generator frame per pread
        # when bulk loading cannot apply.
        if self._bulk_eligible and state.bulk_cursor < state.nblocks:
            yield from self._maybe_bulk_load(state, ufd)

        result = yield from self.vfs.read(handle.file, offset, nbytes,
                                          parent=span)
        if adaptive is not None:
            # Demand hit/miss feedback: the training label for the most
            # recent gate decision on this stream.
            adaptive.note_outcome(inode.id, result.hit_pages,
                                  result.miss_pages)

        # The blocks we just read are resident now: remember that in the
        # user bitmap so nobody prefetches them again.  (The bitmap
        # update itself is sub-0.1 µs; the lock round-trip is the cost
        # that matters and the fast path makes it free when uncontended.)
        pending = state.tree.note_cached_fast(b0, count)
        if pending is not None:
            yield from pending
        if span is not None:
            span.end(bytes=result.nbytes, hits=result.hit_pages,
                     misses=result.miss_pages)
        return result

    def pwrite(self, handle: Handle, offset: int,
               nbytes: int) -> Generator:
        ufd: UserFd = handle.ufd
        state = ufd.state
        state.note_access(self.sim.now)
        bs = self.block_size
        b0 = offset // bs
        if self.config.predict:
            count_hint = max(1, (nbytes + bs - 1) // bs)
            ufd.predictor.observe(b0, count_hint)
        written = yield from self.vfs.write(handle.file, offset, nbytes)
        count = max(1, (written + bs - 1) // bs)
        state.tree.resize(state.inode.nblocks)
        pending = state.tree.note_cached_fast(b0, count)
        if pending is not None:
            yield from pending
        return written

    # -- prefetch decisions -------------------------------------------------------------

    def _plan_due(self, ufd: UserFd, plan: PrefetchPlan, b0: int,
                  count: int) -> bool:
        """Frontier hysteresis: re-issue only when the prefetched runway
        ahead of the stream has shrunk below half a window (or looks
        stale after a jump)."""
        window = max(1, plan.count)
        if not plan.backward:
            cur = b0 + count
            runway = ufd.frontier_fwd - cur
            if 0 <= runway < 4 * window and runway >= window // 2:
                return False
            ufd.frontier_fwd = plan.start + plan.count
            return True
        cur = b0
        if ufd.frontier_bwd is not None:
            runway = cur - ufd.frontier_bwd
            if 0 <= runway < 4 * window and runway >= window // 2:
                return False
        ufd.frontier_bwd = plan.start
        return True

    def _maybe_enqueue(self, state: UserFileState,
                       plan: PrefetchPlan) -> Generator:
        """Check the user bitmap; enqueue only uncached, unrequested runs.

        This is the syscall-elision at the heart of the design: when the
        bitmap says everything is already cached (or already on its way),
        no syscall happens at all.
        """
        if not self.budget.allow_prefetch:
            return
        cfg = self.config
        section = state.tree.write_locked(plan.start, plan.count)
        yield from section.acquire()
        yield self.sim.timeout(cfg.user_op)
        missing = state.tree.missing_runs(plan.start, plan.count)
        for run_start, run_len in missing:
            state.tree.mark_requested(run_start, run_len)
        section.release()
        if not missing:
            self.registry.count("cross.elided_prefetch")
            obs = self._observer
            if obs is not None:
                obs.instant("crosslib", "elide", inode=state.inode.id,
                            start=plan.start, count=plan.count)
            return
        self._submit_runs(state, missing)

    def _budget_pulse(self) -> None:
        """Periodic memory monitoring from the application threads
        (§4.6: "CROSS-LIB continually monitors memory usage").  Keeps
        the evictor alive even when no prefetch workers are running —
        otherwise low memory stops prefetch, idles the workers, and
        nothing ever frees memory again."""
        if not self.config.aggressive:
            return
        self._budget_tick += 1
        if self._budget_tick & 31:
            return
        self.budget.refresh()
        if self.budget.free_fraction <= self.config.evict_watermark \
                and not self.budget._evicting:
            self.sim.process(self.budget.maybe_evict(),
                             name="cross_evictor")

    def _maybe_bulk_load(self, state: UserFileState,
                         ufd: Optional[UserFd] = None) -> Generator:
        """Aggressive compulsory-miss elimination: while memory is
        plentiful, keep bulk-loading files the application is actively
        reading *randomly* (§4.6).  Sequential streams are excluded —
        the predictor's windows already cover them, and a deep bulk
        backlog would only stall the stream behind its own prefetch."""
        cfg = self.config
        if not cfg.aggressive or cfg.fetchall:
            return
        if ufd is not None and cfg.predict \
                and ufd.predictor.state >= cfg.prefetch_threshold:
            return
        if state.bulk_cursor >= state.nblocks:
            return
        if not self.budget.allow_bulk:
            return
        # Bulk loading is pure opportunism — first thing to go when the
        # device (or, under QoS, this stream's tenant) absorbs faults.
        if self._qos is not None:
            if self._qos.level_of(state.inode.id, self.sim.now) >= 1:
                return
        elif self._degrade is not None \
                and self._degrade.current_level(self.sim.now) >= 1:
            return
        if self._adaptive is not None \
                and not self._adaptive.admit_bulk(state.inode.id):
            return
        if self.workers.backlog >= cfg.nr_workers:
            return
        start = state.bulk_cursor
        chunk = max(1, cfg.aggressive_bulk_bytes // self.block_size)
        state.bulk_cursor = min(state.nblocks, start + chunk)
        yield from self._enqueue_range(state, start,
                                       state.bulk_cursor - start)

    def _enqueue_range(self, state: UserFileState, start: int,
                       count: int,
                       chunk_bytes: Optional[int] = None) -> Generator:
        if count <= 0:
            return
        section = state.tree.write_locked(start, count)
        yield from section.acquire()
        missing = state.tree.missing_runs(start, count)
        for run_start, run_len in missing:
            state.tree.mark_requested(run_start, run_len)
        section.release()
        self._submit_runs(state, missing, chunk_bytes=chunk_bytes)

    def _submit_runs(self, state: UserFileState,
                     runs: list[tuple[int, int]],
                     chunk_bytes: Optional[int] = None) -> None:
        cfg = self.config
        bs = self.block_size
        cap_bytes = chunk_bytes or (cfg.max_request_bytes if cfg.relax_limits
                                    else cfg.capped_request_bytes)
        cap = max(1, cap_bytes // bs)
        for run_start, run_len in runs:
            pos = run_start
            while pos < run_start + run_len:
                n = min(cap, run_start + run_len - pos)
                self.workers.submit(PrefetchRequest(state, pos, n))
                pos += n

    # -- mmap -------------------------------------------------------------------------------

    def _on_mmap_open(self, mh: MmapHandle) -> Generator:
        # The OS fault path keeps fault-around, but CROSS-LIB drives the
        # readahead through its watcher instead of the stock engine.
        mh.region.file.ra.enabled = False
        state = self._state_for(mh.region.file)
        state.note_open(self.sim.now)
        watcher = _MmapWatcher(self, state)
        mh.watcher = watcher
        self._watchers.append(watcher)
        return
        yield  # pragma: no cover - generator marker

    def mmap_access(self, mh: MmapHandle, offset: int,
                    nbytes: int) -> Generator:
        mh.watcher.kick()
        result = yield from mh.region.access(offset, nbytes)
        return result

    # -- lifecycle -------------------------------------------------------------------------

    def teardown(self) -> None:
        self.workers.teardown()
        for watcher in self._watchers:
            watcher.teardown()


class _MmapWatcher:
    """Bitmap-delta pattern detection for memory-mapped files (§4.6).

    mmap loads/stores make no syscalls, so CROSS-LIB cannot observe them
    directly.  Instead a background thread periodically imports the
    file's cache bitmap (``readahead_info`` with ``fetch_bitmap_only``),
    diffs it against the previous snapshot to find the fault frontier,
    and prefetches a window ahead of it.  As §4.6 admits, this resembles
    OS readahead in accuracy — the Table-4 gains come from the larger,
    budget-aware windows.
    """

    def __init__(self, runtime: CrossLibRuntime, state: UserFileState):
        self.runtime = runtime
        self.state = state
        self._kick = Condition(runtime.sim, "mmap_watch_kick")
        self._snapshot = None
        self._frontier = 0
        self._window = max(
            32, runtime.config.aggressive_initial_bytes
            // runtime.block_size)
        self._proc = runtime.sim.process(self._loop(), name="mmap_watcher")

    def kick(self) -> None:
        self._kick.notify_all()

    def _loop(self) -> Generator:
        runtime = self.runtime
        state = self.state
        bs = runtime.block_size
        while True:
            yield self._kick.wait()
            info = CacheInfo(offset=0, nbytes=state.inode.size,
                             fetch_bitmap_only=True,
                             bitmap_window=(0, state.nblocks))
            info = yield from runtime.crossos.readahead_info(
                state.prefetch_file, info)
            bits = info.bitmap_bits
            if self._snapshot is not None:
                delta = bits & ~self._snapshot
            else:
                delta = bits
            self._snapshot = bits
            runtime.budget.update(info.free_pages, info.total_pages)
            if delta == 0:
                continue
            frontier = delta.bit_length()  # one past highest new block
            sequentialish = frontier >= self._frontier
            self._frontier = frontier
            if not sequentialish or not runtime.budget.allow_prefetch:
                continue
            count = min(self._window, max(0, state.nblocks - frontier))
            if count > 0:
                yield from runtime._enqueue_range(state, frontier, count)
                # Grow the window while the pattern holds.
                self._window = min(self._window * 2,
                                   runtime.config.max_request_bytes // bs)

    def teardown(self) -> None:
        if self._proc.is_alive:
            self._proc.interrupt("teardown")
