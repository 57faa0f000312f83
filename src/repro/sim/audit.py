"""Invariant auditor: conservation checks, deadlock detection, leaks.

The simulator's claims rest on pages, bytes, and lock time being
conserved across the page-cache / bitmap / LRU / device layers.  This
module makes that mechanically checkable.  An :class:`Auditor` attaches
to a :class:`~repro.sim.engine.Simulator` (``sim.auditor``) and is fed
by hooks in the sync primitives, the engine's process lifecycle, the
page-cache mirror hooks, and the VFS fill path.  With no auditor
attached, every hook site is a single ``None`` check — same contract as
the PR-1 span observer.

Three families of checks:

**Conservation** (:meth:`Auditor.check_now` / :meth:`Auditor.final_check`)
    * ``MemoryManager.used_pages`` ≡ Σ per-inode ``cached_pages``;
    * LRU membership ≡ the set of chunks with resident pages;
    * the Cross-OS exported bitmap ≡ page-cache ``present`` (exact at
      ``cross_bitmap_shift == 0``, the default; a coarser bitmap
      under-reports by design after partial evictions, so it is skipped);
    * device bytes read ≡ bytes the VFS fill path issued (``≤`` while
      requests are queued, equal once the simulation drains);
    * per-direction device channel utilization ≤ 1.0 (the check that
      catches double-counted busy time);
    * with a QoS manager attached: Σ per-tenant ``admitted_blocks`` ≡
      the ``cross.prefetch_blocks`` counter (every admission charged to
      exactly one tenant), token buckets never overdrawn, and every
      tenant's in-flight prefetch count back to zero at shutdown.

**Deadlock / lock order** (fed by the sync-primitive hooks)
    * a wait-for graph over ``Lock``/``RwLock``/``Semaphore``: a cycle
      raises :class:`AuditError` immediately, naming the processes and
      locks involved;
    * a lockdep-style order recorder: two lock *classes* (instance names
      with the ``[...]`` suffix stripped) acquired in both orders is
      recorded as a warning.

**Leaks** (:meth:`Auditor.final_check`)
    * a lock still held when its holder process exits, or when the
      simulation ends;
    * a process still blocked at the end — its wakeup event never fired;
    * inflight / planned fill bitmaps not empty after shutdown.

``final_check`` raises :class:`AuditError` listing every recorded
violation; order-inversion warnings are reported but never fatal.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Optional

from repro.sim.engine import Event, Process, SimulationError, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.os.crossos import CrossState
    from repro.os.kernel import Kernel

__all__ = ["AuditError", "Auditor", "run_stress"]

# Holder key for acquisitions made outside any simulated process
# (experiment setup code, tests poking primitives directly).
_EXTERNAL = "<external>"


class AuditError(SimulationError):
    """An invariant violation detected by the :class:`Auditor`."""


def _base_name(prim: Any) -> str:
    """Lock *class* for order tracking: ``cache_tree[7]`` -> ``cache_tree``."""
    return prim.name.split("[", 1)[0]


def _proc_name(proc: Any) -> str:
    return proc.name if isinstance(proc, Process) else str(proc)


class Auditor:
    """Collects invariants for one simulator; see the module docstring."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        sim.auditor = self
        # prim -> {holder: count} (RwLock readers / Semaphore slots can
        # have several holders; a holder can hold several slots).
        self._holders: dict[Any, dict[Any, int]] = {}
        # holder -> [prim, ...] in acquisition order (with repeats).
        self._held: dict[Any, list[Any]] = {}
        # Grant event -> (prim, waiter) recorded when a process blocks;
        # consumed at grant time to learn the new holder's identity
        # (the grant itself runs in the releaser's context).
        self._pending: dict[Event, tuple[Any, Any]] = {}
        # process -> prim it is currently blocked on (wait-for edges).
        self._blocked: dict[Any, Any] = {}
        # Ordered pairs of lock classes seen: (first, second).
        self._order: set[tuple[str, str]] = set()
        self._warned_pairs: set[tuple[str, str]] = set()
        self.warnings: list[str] = []
        self.violations: list[str] = []
        # Bytes the VFS fill path asked the device to read.
        self.fill_read_bytes = 0
        self.mirror_checks = 0
        self._kernel: Optional["Kernel"] = None
        self._finalized = False

    # -- wiring ------------------------------------------------------------

    def attach_kernel(self, kernel: "Kernel") -> None:
        self._kernel = kernel

    def _holder(self) -> Any:
        proc = self.sim.current_process
        return proc if proc is not None else _EXTERNAL

    # -- sync-primitive hooks ----------------------------------------------

    def lock_registered(self, prim: Any) -> None:
        self._holders.setdefault(prim, {})

    def lock_acquired(self, prim: Any, mode: str = "") -> None:
        """An immediate (uncontended) grant to the current process."""
        self._grant_to(prim, self._holder())

    def lock_blocked(self, prim: Any, ev: Event, mode: str = "") -> None:
        """The current process queued on ``prim``; check for deadlock."""
        waiter = self._holder()
        self._pending[ev] = (prim, waiter)
        if waiter is _EXTERNAL:
            return
        self._blocked[waiter] = prim
        cycle = self._find_cycle(waiter, prim)
        if cycle is not None:
            procs, locks = cycle
            msg = ("deadlock: " +
                   " -> ".join(f"{_proc_name(p)} waits on "
                               f"{lk.name!r}" for p, lk in zip(procs, locks)))
            self.violations.append(msg)
            raise AuditError(msg)

    def lock_granted(self, prim: Any, ev: Event, mode: str = "") -> None:
        """A queued waiter was granted the primitive (releaser context)."""
        entry = self._pending.pop(ev, None)
        if entry is None:
            return
        _prim, waiter = entry
        self._blocked.pop(waiter, None)
        self._grant_to(prim, waiter)

    def lock_released(self, prim: Any, mode: str = "") -> None:
        holders = self._holders.get(prim)
        if not holders:
            return
        # Attribute the release to the current process when it is a
        # holder; otherwise to any holder (FIFO pairing — exact for the
        # aggregate checks this auditor makes).
        holder = self._holder()
        if holder not in holders:
            holder = next(iter(holders))
        holders[holder] -= 1
        if holders[holder] <= 0:
            del holders[holder]
        held = self._held.get(holder)
        if held is not None:
            try:
                held.remove(prim)
            except ValueError:
                pass
            if not held:
                del self._held[holder]

    def _grant_to(self, prim: Any, holder: Any) -> None:
        held = self._held.setdefault(holder, [])
        self._record_order(held, prim)
        held.append(prim)
        holders = self._holders.setdefault(prim, {})
        holders[holder] = holders.get(holder, 0) + 1

    # -- lock-order recording ----------------------------------------------

    def _record_order(self, held: list, prim: Any) -> None:
        inner = _base_name(prim)
        for outer_prim in held:
            outer = _base_name(outer_prim)
            if outer == inner:
                # Same class (e.g. two per-inode bitmap locks): instances
                # guard disjoint state, ordering is not meaningful here.
                continue
            pair = (outer, inner)
            self._order.add(pair)
            inverse = (inner, outer)
            if inverse in self._order and pair not in self._warned_pairs:
                self._warned_pairs.add(pair)
                self._warned_pairs.add(inverse)
                self.warnings.append(
                    f"lock-order inversion: {outer!r} and {inner!r} "
                    f"acquired in both orders")

    # -- wait-for graph ----------------------------------------------------

    def _find_cycle(self, start_proc: Any, start_prim: Any
                    ) -> Optional[tuple[list, list]]:
        """DFS from ``start_prim``'s holders back to ``start_proc``.

        Returns (processes, locks-they-wait-on) along the cycle, or None.
        """
        path_procs: list = [start_proc]
        path_locks: list = [start_prim]

        def visit(prim: Any, seen: set) -> bool:
            for holder in self._holders.get(prim, {}):
                if holder is start_proc:
                    return True
                if holder is _EXTERNAL or holder in seen:
                    continue
                nxt = self._blocked.get(holder)
                if nxt is None:
                    continue
                seen.add(holder)
                path_procs.append(holder)
                path_locks.append(nxt)
                if visit(nxt, seen):
                    return True
                path_procs.pop()
                path_locks.pop()
            return False

        if visit(start_prim, {start_proc}):
            return path_procs, path_locks
        return None

    # -- process lifecycle -------------------------------------------------

    def process_exited(self, proc: Process) -> None:
        held = self._held.pop(proc, None)
        if held:
            names = sorted({p.name for p in held})
            self.violations.append(
                f"process {proc.name!r} exited holding "
                f"{', '.join(repr(n) for n in names)}")
            for prim in held:
                holders = self._holders.get(prim)
                if holders is not None:
                    holders.pop(proc, None)
        self._blocked.pop(proc, None)
        for ev, (prim, waiter) in list(self._pending.items()):
            if waiter is proc:
                del self._pending[ev]

    # -- conservation feeds ------------------------------------------------

    def count_fill_read(self, nbytes: int) -> None:
        """The VFS fill path submitted ``nbytes`` of device reads."""
        self.fill_read_bytes += nbytes

    def check_mirror(self, state: "CrossState", start: int,
                     count: int) -> None:
        """After a mirror hook: exported bitmap ≡ ``present`` over the
        affected window (exact only at shift 0)."""
        if state.bitmap.shift != 0:
            return
        self.mirror_checks += 1
        cache = state.inode.cache
        count = max(0, min(count, cache.nblocks - start))
        if count <= 0:
            return
        if state.bitmap.window(start, count) != \
                cache.present.window(start, count):
            self.violations.append(
                f"cross bitmap diverged from page cache for inode "
                f"{state.inode.id} blocks [{start}, {start + count})")

    # -- the checks --------------------------------------------------------

    def check_now(self, kernel: Optional["Kernel"] = None) -> None:
        """Audit cross-layer conservation at the current instant.

        Valid at any quiescent point (between drives, after ``run()``);
        device byte equality is deferred to :meth:`final_check` because
        queued requests are counted at dispatch, not submission.
        """
        kernel = kernel or self._kernel
        if kernel is None:
            return
        mem = kernel.mem
        caches = list(mem._caches.values())
        cached = sum(c.cached_pages for c in caches)
        if mem.used_pages != cached:
            self.violations.append(
                f"memory accounting: used_pages={mem.used_pages} but "
                f"page caches hold {cached} pages")
        lru_keys = set(mem.lru.keys())
        resident = {(c.inode_id, chunk)
                    for c in caches for chunk in c.resident_chunks()}
        if lru_keys != resident:
            ghosts = sorted(lru_keys - resident)[:4]
            missing = sorted(resident - lru_keys)[:4]
            self.violations.append(
                f"LRU membership != resident chunks "
                f"(in LRU only: {ghosts}, resident only: {missing})")
        cross = kernel.cross
        if cross is not None:
            for state in cross._states.values():
                if state.bitmap.shift != 0:
                    continue
                cache = state.inode.cache
                n = cache.nblocks
                if n and state.bitmap.window(0, n) != \
                        cache.present.window(0, n):
                    self.violations.append(
                        f"cross bitmap != present for inode "
                        f"{state.inode.id}")
        # Byte conservation, fault-aware: every attempt the device
        # consumed (success, injected failure, or watchdog abort) must
        # have been issued by the fill path or by a retry.  On a healthy
        # device the fault terms are all zero and this degenerates to
        # read_bytes ≤ fill_read_bytes.
        stats = kernel.device.stats
        consumed = (stats.read_bytes + stats.failed_read_bytes
                    + stats.aborted_read_bytes)
        issued = self.fill_read_bytes + stats.retried_read_bytes
        if consumed > issued:
            self.violations.append(
                f"device consumed {consumed} read bytes "
                f"(ok={stats.read_bytes}, failed={stats.failed_read_bytes},"
                f" aborted={stats.aborted_read_bytes}) but only {issued} "
                f"were issued (fill={self.fill_read_bytes}, "
                f"retried={stats.retried_read_bytes})")
        # Multi-tenant fairness: every Cross-OS block admission went
        # through exactly one tenant's bucket, and no bucket was ever
        # overdrawn (grant() clamps at zero; negative tokens would mean
        # the fair-share arbiter leaked budget).
        qos = getattr(kernel, "qos", None)
        if qos is not None:
            admitted = sum(state.admitted_blocks
                           for state in qos.tenants.values())
            counted = kernel.registry.get("cross.prefetch_blocks")
            if admitted != counted:
                self.violations.append(
                    f"qos admission not conserved: tenants admitted "
                    f"{admitted} blocks but cross.prefetch_blocks="
                    f"{counted:g}")
            for name, state in qos.tenants.items():
                if state.bucket.tokens < -1e-9:
                    self.violations.append(
                        f"qos bucket for tenant {name!r} overdrawn: "
                        f"{state.bucket.tokens} tokens")

    def check_fill_leaks(self, kernel: "Kernel", prefix: str = "") -> None:
        """Record every live inode whose inflight or planned fill bitmap
        is not empty (a fill or prefetch pipeline that never cleaned
        up).  ``prefix`` names the host in a fleet."""
        for inode_id, inode in kernel.vfs._by_id.items():
            if inode.inflight.count_set():
                self.violations.append(f"{prefix}inflight bitmap not "
                                       f"empty for inode {inode_id}")
            if inode.planned.count_set():
                self.violations.append(f"{prefix}planned bitmap not "
                                       f"empty for inode {inode_id}")

    def final_check(self, kernel: Optional["Kernel"] = None) -> None:
        """End-of-run audit; raises :class:`AuditError` on violations.

        Call with the simulation drained (``Kernel.shutdown`` does)."""
        if self._finalized:
            return
        self._finalized = True
        kernel = kernel or self._kernel
        self.check_now(kernel)
        if kernel is not None:
            stats = kernel.device.stats
            consumed = (stats.read_bytes + stats.failed_read_bytes
                        + stats.aborted_read_bytes)
            issued = self.fill_read_bytes + stats.retried_read_bytes
            if consumed != issued:
                self.violations.append(
                    f"device bytes not conserved: consumed {consumed} "
                    f"(ok={stats.read_bytes}, "
                    f"failed={stats.failed_read_bytes}, "
                    f"aborted={stats.aborted_read_bytes}) but the fill "
                    f"path issued {self.fill_read_bytes} "
                    f"(+{stats.retried_read_bytes} retried)")
            elapsed = self.sim.now
            if elapsed > 0:
                util = stats.utilization(elapsed)
                if util > 1.0 + 1e-9:
                    self.violations.append(
                        f"device channel utilization {util:.3f} > 1.0")
            self.check_fill_leaks(kernel)
            dirty = sum(inode.cache.dirty_pages
                        for inode in kernel.vfs._by_id.values())
            if kernel.mem.dirty_pages != dirty:
                self.violations.append(
                    f"dirty page total {kernel.mem.dirty_pages} != "
                    f"{dirty} dirty pages over live inodes")
            qos = getattr(kernel, "qos", None)
            if qos is not None:
                for name, state in qos.tenants.items():
                    if state.inflight != 0:
                        self.violations.append(
                            f"qos tenant {name!r} still has "
                            f"{state.inflight} prefetch requests in "
                            f"flight at end of run")
            # Durability: every byte a flush barrier acknowledged must
            # still be persisted at shutdown (crash-time coverage is
            # checked by repro.sim.crash.take_snapshot instead, since a
            # crashed kernel never reaches final_check).
            durable = getattr(kernel, "durable", None)
            if durable is not None:
                self.violations.extend(durable.verify_acked())
        for prim, holders in self._holders.items():
            for holder, n in holders.items():
                if n > 0:
                    self.violations.append(
                        f"{prim.name!r} still held by "
                        f"{_proc_name(holder)} at end of run")
        for proc, prim in self._blocked.items():
            self.violations.append(
                f"process {_proc_name(proc)} still blocked on "
                f"{prim.name!r} at end of run (grant never fired)")
        for proc in self.sim._processes:
            if proc.is_alive and proc not in self._blocked:
                self.violations.append(
                    f"process {proc.name!r} never finished "
                    f"(waited-on event never fired)")
        if self.violations:
            raise AuditError(
                "invariant audit failed:\n  " +
                "\n  ".join(self.violations))


# -- randomized model-checking stress harness ------------------------------


def run_stress(seed: int, *, steps: int = 40, nthreads: int = 4,
               file_mb: int = 8, memory_mb: int = 2,
               faults=None, qos=None) -> dict:
    """Drive an audited kernel with randomized concurrent readers,
    prefetchers, writers, and reclaim pressure.

    Memory is sized well below the file so reclaim runs constantly; the
    thread mix hits the demand-read, Cross-OS prefetch, writeback, and
    fadvise(DONTNEED) paths concurrently.  Deterministic in ``seed``.
    With a ``faults`` spec (:class:`repro.sim.faults.FaultSpec`) the
    same mix runs under chaos — the audit must stay green while the
    device injects failures, storms, and stalls.  A ``qos`` spec
    (:class:`repro.sim.qos.QosSpec`) attaches the multi-tenant manager
    so the fairness invariants (admission conservation, bucket
    non-negativity, inflight drain) are exercised too.  Raises
    :class:`AuditError` if any invariant breaks; returns a small stats
    dict otherwise.

    Durable-damage specs extend the run in two ways.  The worker mix
    gains ``fsync`` (flush barriers are what make persistence
    accounting non-trivial).  A spec with a crash model additionally
    switches to crash-restart mode: the run is cut at the
    seed-deterministic crash instant, the persisted remnants are
    snapshotted (checking the no-acked-bytes-lost invariant), the
    crashed kernel is abandoned, and a fresh audited kernel is rebuilt
    from the snapshot and driven through verification reads — so the
    whole restart path runs under the full invariant audit.
    """
    from repro.os.kernel import Kernel

    MB = 1 << 20
    rng = random.Random(seed)
    kernel = Kernel(memory_bytes=memory_mb * MB, cross_enabled=True,
                    audit=True, faults=faults, qos=qos)
    inode = kernel.create_file("/stress", file_mb * MB)
    bs = kernel.config.block_size

    has_durable = faults is not None and faults.durable

    def worker(tid: int):
        from repro.os.crossos import CacheInfo
        file = kernel.vfs.open_sync("/stress")
        for _ in range(steps):
            op = rng.random()
            offset = rng.randrange(0, inode.size - bs)
            nbytes = rng.choice((bs, 4 * bs, 32 * bs, 128 * bs))
            if op < 0.45:
                yield from kernel.vfs.read(file, offset, nbytes)
            elif op < 0.65:
                info = CacheInfo(offset=offset, nbytes=nbytes)
                yield from kernel.cross.readahead_info(file, info)
                if rng.random() < 0.5:
                    yield info.completion
            elif op < 0.75:
                yield from kernel.vfs.readahead(file, offset, nbytes)
            elif op < 0.85:
                yield from kernel.vfs.write(file, offset, nbytes)
            elif op < 0.95:
                yield from kernel.vfs.fadvise(file, "dontneed", offset,
                                              nbytes)
            else:
                yield from kernel.vfs.fincore(file, offset, nbytes)
            if rng.random() < 0.2:
                yield kernel.sim.timeout(rng.uniform(0.0, 50.0))

    def worker_durable(tid: int):
        # Durable-damage mix: like worker(), plus fsync — flush
        # barriers are what turn persistence accounting into an
        # invariant worth auditing.  A separate closure so runs under
        # the pre-existing presets stay byte-identical.
        from repro.os.crossos import CacheInfo
        file = kernel.vfs.open_sync("/stress")
        for _ in range(steps):
            op = rng.random()
            offset = rng.randrange(0, inode.size - bs)
            nbytes = rng.choice((bs, 4 * bs, 32 * bs, 128 * bs))
            if op < 0.40:
                yield from kernel.vfs.read(file, offset, nbytes)
            elif op < 0.55:
                info = CacheInfo(offset=offset, nbytes=nbytes)
                yield from kernel.cross.readahead_info(file, info)
                if rng.random() < 0.5:
                    yield info.completion
            elif op < 0.65:
                yield from kernel.vfs.readahead(file, offset, nbytes)
            elif op < 0.80:
                yield from kernel.vfs.write(file, offset, nbytes)
            elif op < 0.87:
                yield from kernel.vfs.fsync(file)
            elif op < 0.95:
                yield from kernel.vfs.fadvise(file, "dontneed", offset,
                                              nbytes)
            else:
                yield from kernel.vfs.fincore(file, offset, nbytes)
            if rng.random() < 0.2:
                yield kernel.sim.timeout(rng.uniform(0.0, 50.0))

    make_worker = worker_durable if has_durable else worker
    for tid in range(nthreads):
        kernel.sim.process(make_worker(tid), name=f"stress[{tid}]")

    if faults is not None and faults.crash is not None:
        return _finish_stress_crash(kernel, seed, faults,
                                    memory_mb * MB, steps, nthreads)

    kernel.sim.run()
    auditor = kernel.auditor
    auditor.check_now(kernel)
    kernel.shutdown()  # drains + final_check
    summary = {
        "seed": seed,
        "sim_time_us": kernel.sim.now,
        "read_bytes": kernel.device.stats.read_bytes,
        "mirror_checks": auditor.mirror_checks,
        "warnings": list(auditor.warnings),
    }
    if kernel.fault_engine is not None:
        summary["faults"] = kernel.device.stats.fault_summary()
        degrade = kernel.device.degrade
        if degrade is not None:
            summary["degrade_transitions"] = degrade.transitions
    if kernel.qos is not None:
        summary["qos"] = kernel.qos.snapshot()
        summary["reroutes"] = kernel.device.stats.reroutes
    if has_durable and kernel.durable is not None:
        summary["durable"] = kernel.durable.summary()
    return summary


def _finish_stress_crash(kernel, seed: int, faults, memory_bytes: int,
                         steps: int, nthreads: int) -> dict:
    """Crash-restart tail of :func:`run_stress` (crash specs only).

    Cuts the run at the seed-derived crash instant, snapshots the
    persisted remnants (which itself checks the acked-bytes invariant),
    abandons the crashed kernel — it is mid-flight, so neither
    ``check_now`` nor ``final_check`` may run on it — and rebuilds a
    fresh audited kernel from the snapshot, driving deterministic
    verification reads over the restored file.
    """
    from repro.os.kernel import Kernel
    from repro.sim.crash import restore_into, take_snapshot
    from repro.sim.faults import crash_time_us

    crash_t = crash_time_us(faults)
    kernel.sim.run(until=crash_t)
    snapshot = take_snapshot(kernel)
    crashed_faults = kernel.device.stats.fault_summary()

    restarted = Kernel(memory_bytes=memory_bytes, cross_enabled=True,
                       audit=True)
    restore_into(restarted, snapshot)
    remnant = snapshot.files["/stress"]
    bs = restarted.config.block_size

    def verifier(tid: int):
        from repro.os.crossos import CacheInfo
        vrng = random.Random((seed << 8) ^ (tid * 0x9E37 + 1))
        file = restarted.vfs.open_sync("/stress")
        for _ in range(max(4, steps // 2)):
            offset = vrng.randrange(0, remnant.size - bs)
            nbytes = vrng.choice((bs, 4 * bs, 32 * bs))
            if vrng.random() < 0.3:
                info = CacheInfo(offset=offset, nbytes=nbytes)
                yield from restarted.cross.readahead_info(file, info)
                yield info.completion
            yield from restarted.vfs.read(file, offset, nbytes)

    for tid in range(nthreads):
        restarted.sim.process(verifier(tid), name=f"verify[{tid}]")
    restarted.sim.run()
    auditor = restarted.auditor
    auditor.check_now(restarted)
    restarted.shutdown()  # drains + final_check
    return {
        "seed": seed,
        "sim_time_us": restarted.sim.now,
        "read_bytes": restarted.device.stats.read_bytes,
        "mirror_checks": auditor.mirror_checks,
        "warnings": list(auditor.warnings),
        "faults": crashed_faults,
        "durable": snapshot.durable,
        "crash": {
            "time_us": round(crash_t, 3),
            "lost_dirty_pages": snapshot.lost_dirty_pages,
            "damaged_blocks": sum(r.invalid_blocks()
                                  for r in snapshot.files.values()),
            "resolution": snapshot.resolution,
        },
    }
