"""Tests for the invariant auditor: deadlock detection, lock-order
recording, leak checks, and cross-layer conservation audits."""

import pytest

from repro.os.crossos import CacheInfo
from repro.os.kernel import Kernel
from repro.sim import AuditError, Auditor, Lock, RwLock, Semaphore, Simulator

from tests.conftest import MB, drive

KB = 1 << 10


@pytest.fixture
def audited_kernel():
    k = Kernel(memory_bytes=8 * MB, cross_enabled=True, audit=True)
    yield k


class TestDeadlockDetector:
    def test_lock_order_inversion_deadlock_raises(self):
        """The acceptance-criteria case: a deliberately seeded AB/BA
        inversion that actually deadlocks is caught and named."""
        sim = Simulator()
        Auditor(sim)
        a = Lock(sim, name="lock_a")
        b = Lock(sim, name="lock_b")

        def forward():
            yield a.acquire()
            yield sim.timeout(5)
            yield b.acquire()
            b.release()
            a.release()

        def backward():
            yield b.acquire()
            yield sim.timeout(5)
            yield a.acquire()
            a.release()
            b.release()

        sim.process(forward(), name="forward")
        sim.process(backward(), name="backward")
        with pytest.raises(AuditError, match="deadlock"):
            sim.run()

    def test_deadlock_message_names_processes_and_locks(self):
        sim = Simulator()
        Auditor(sim)
        a = Lock(sim, name="lock_a")
        b = Lock(sim, name="lock_b")

        def forward():
            yield a.acquire()
            yield sim.timeout(5)
            yield b.acquire()

        def backward():
            yield b.acquire()
            yield sim.timeout(5)
            yield a.acquire()

        sim.process(forward(), name="fwd")
        sim.process(backward(), name="bwd")
        with pytest.raises(AuditError) as exc:
            sim.run()
        msg = str(exc.value)
        for name in ("fwd", "bwd", "lock_a", "lock_b"):
            assert name in msg

    def test_three_way_cycle(self):
        sim = Simulator()
        Auditor(sim)
        locks = [Lock(sim, name=f"l{i}") for i in range(3)]

        def worker(i):
            yield locks[i].acquire()
            yield sim.timeout(5)
            yield locks[(i + 1) % 3].acquire()

        for i in range(3):
            sim.process(worker(i), name=f"w{i}")
        with pytest.raises(AuditError, match="deadlock"):
            sim.run()

    def test_rwlock_writer_vs_lock_cycle(self):
        sim = Simulator()
        Auditor(sim)
        rw = RwLock(sim, name="tree")
        mu = Lock(sim, name="mu")

        def reader_then_mu():
            yield rw.acquire_read()
            yield sim.timeout(5)
            yield mu.acquire()

        def mu_then_writer():
            yield mu.acquire()
            yield sim.timeout(5)
            yield rw.acquire_write()

        sim.process(reader_then_mu(), name="reader")
        sim.process(mu_then_writer(), name="writer")
        with pytest.raises(AuditError, match="deadlock"):
            sim.run()

    def test_plain_contention_is_not_deadlock(self):
        sim = Simulator()
        auditor = Auditor(sim)
        lock = Lock(sim, name="hot")

        def worker():
            yield lock.acquire()
            yield sim.timeout(10)
            lock.release()

        for _ in range(4):
            sim.process(worker())
        sim.run()
        assert auditor.violations == []

    def test_semaphore_cycle_detected(self):
        sim = Simulator()
        Auditor(sim)
        sem = Semaphore(sim, capacity=1, name="slots")
        mu = Lock(sim, name="mu")

        def a():
            yield sem.acquire()
            yield sim.timeout(5)
            yield mu.acquire()

        def b():
            yield mu.acquire()
            yield sim.timeout(5)
            yield sem.acquire()

        sim.process(a(), name="a")
        sim.process(b(), name="b")
        with pytest.raises(AuditError, match="deadlock"):
            sim.run()


class TestLockOrderRecorder:
    def test_inversion_without_overlap_warns(self):
        """AB then (later) BA never deadlocks here, but the recorded
        order inversion is the lockdep-style early warning."""
        sim = Simulator()
        auditor = Auditor(sim)
        a = Lock(sim, name="alpha")
        b = Lock(sim, name="beta")

        def forward():
            yield a.acquire()
            yield b.acquire()
            b.release()
            a.release()

        def backward():
            yield sim.timeout(100)  # strictly after forward finished
            yield b.acquire()
            yield a.acquire()
            a.release()
            b.release()

        sim.process(forward(), name="forward")
        sim.process(backward(), name="backward")
        sim.run()
        assert auditor.violations == []
        assert len(auditor.warnings) == 1
        assert "alpha" in auditor.warnings[0]
        assert "beta" in auditor.warnings[0]

    def test_warning_emitted_once_per_pair(self):
        sim = Simulator()
        auditor = Auditor(sim)
        a = Lock(sim, name="alpha")
        b = Lock(sim, name="beta")

        def inverted(first, second, delay):
            yield sim.timeout(delay)
            yield first.acquire()
            yield second.acquire()
            second.release()
            first.release()

        sim.process(inverted(a, b, 0))
        sim.process(inverted(b, a, 100))
        sim.process(inverted(b, a, 200))
        sim.run()
        assert len(auditor.warnings) == 1

    def test_same_class_instances_not_flagged(self):
        """Per-inode instances of one lock class guard disjoint state;
        crossing orders between them is expected, not an inversion."""
        sim = Simulator()
        auditor = Auditor(sim)
        a = Lock(sim, name="inode[1]")
        b = Lock(sim, name="inode[2]")

        def forward():
            yield a.acquire()
            yield b.acquire()
            b.release()
            a.release()

        def backward():
            yield sim.timeout(100)
            yield b.acquire()
            yield a.acquire()
            a.release()
            b.release()

        sim.process(forward())
        sim.process(backward())
        sim.run()
        assert auditor.warnings == []


class TestLeakChecks:
    def test_exit_holding_lock_is_violation(self):
        sim = Simulator()
        auditor = Auditor(sim)
        lock = Lock(sim, name="leaky")

        def worker():
            yield lock.acquire()
            yield sim.timeout(5)
            # exits without releasing

        sim.process(worker(), name="leaker")
        sim.run()
        assert any("leaky" in v and "leaker" in v
                   for v in auditor.violations)
        with pytest.raises(AuditError):
            auditor.final_check()

    def test_lock_held_at_end_of_run(self):
        sim = Simulator()
        auditor = Auditor(sim)
        lock = Lock(sim, name="held_forever")
        lock.acquire()  # external holder, never released
        sim.run()
        with pytest.raises(AuditError, match="held_forever"):
            auditor.final_check()

    def test_blocked_forever_is_violation(self):
        sim = Simulator()
        auditor = Auditor(sim)
        lock = Lock(sim, name="stuck")
        lock.acquire()  # external holder never releases

        def waiter():
            yield lock.acquire()

        sim.process(waiter(), name="waiter")
        sim.run()
        with pytest.raises(AuditError) as exc:
            auditor.final_check()
        assert "waiter" in str(exc.value)
        assert "stuck" in str(exc.value)

    def test_event_never_fired_is_violation(self):
        sim = Simulator()
        auditor = Auditor(sim)

        def stuck():
            yield sim.event()  # nobody ever triggers this

        sim.process(stuck(), name="stuck_proc")
        sim.run()
        with pytest.raises(AuditError, match="never"):
            auditor.final_check()

    def test_clean_run_passes_final_check(self):
        sim = Simulator()
        auditor = Auditor(sim)
        lock = Lock(sim, name="clean")

        def worker():
            yield lock.acquire()
            yield sim.timeout(5)
            lock.release()

        sim.process(worker())
        sim.run()
        auditor.final_check()
        assert auditor.violations == []


class TestConservation:
    def _read_some(self, kernel, path="/f", size=4 * MB):
        inode = kernel.create_file(path, size)
        file = kernel.vfs.open_sync(path)

        def gen():
            yield from kernel.vfs.read(file, 0, size // 2)
            info = CacheInfo(offset=size // 2, nbytes=size // 4)
            yield from kernel.cross.readahead_info(file, info)
            yield info.completion

        drive(kernel, gen())
        return inode

    def test_clean_workload_conserves(self, audited_kernel):
        kernel = audited_kernel
        self._read_some(kernel)
        kernel.auditor.check_now(kernel)
        assert kernel.auditor.violations == []
        kernel.shutdown()  # final check must pass too

    def test_memory_accounting_violation_detected(self, audited_kernel):
        kernel = audited_kernel
        self._read_some(kernel)
        # Tamper: leak pages from the accounting without evicting.
        kernel.mem.used_pages -= 5
        kernel.auditor.check_now(kernel)
        assert any("memory accounting" in v
                   for v in kernel.auditor.violations)

    def test_lru_membership_violation_detected(self, audited_kernel):
        kernel = audited_kernel
        self._read_some(kernel)
        # Tamper: drop a resident chunk from the LRU behind the
        # manager's back.
        key = next(iter(kernel.mem.lru.keys()))
        kernel.mem.lru.removed(key)
        kernel.auditor.check_now(kernel)
        assert any("LRU membership" in v
                   for v in kernel.auditor.violations)

    def test_bitmap_mirror_violation_detected(self, audited_kernel):
        kernel = audited_kernel
        inode = self._read_some(kernel)
        # Tamper: flip an exported bit without touching the page cache.
        state = kernel.cross.state(inode)
        state.bitmap.clear_range(0, 1)
        kernel.auditor.check_now(kernel)
        assert any("cross bitmap" in v
                   for v in kernel.auditor.violations)

    def test_mirror_hook_check_fires(self, audited_kernel):
        kernel = audited_kernel
        self._read_some(kernel)
        assert kernel.auditor.mirror_checks > 0

    def test_device_byte_conservation_violation(self, audited_kernel):
        kernel = audited_kernel
        self._read_some(kernel)
        # Tamper: pretend the fill path issued fewer bytes than the
        # device saw.
        kernel.auditor.fill_read_bytes -= 4 * KB
        with pytest.raises(AuditError, match="fill path"):
            kernel.shutdown()

    def test_fill_bitmap_leak_detected(self, audited_kernel):
        kernel = audited_kernel
        inode = self._read_some(kernel)
        # Tamper: a fill and a prefetch pipeline that never cleaned up.
        inode.inflight.set_range(3, 2)
        inode.planned.set_range(7, 1)
        with pytest.raises(AuditError) as err:
            kernel.shutdown()
        assert f"inflight bitmap not empty for inode {inode.id}" \
            in str(err.value)
        assert f"planned bitmap not empty for inode {inode.id}" \
            in str(err.value)

    def test_device_utilization_bounded(self, audited_kernel):
        kernel = audited_kernel
        self._read_some(kernel)
        assert kernel.device.stats.utilization(kernel.sim.now) <= 1.0

    def test_final_check_is_idempotent(self, audited_kernel):
        kernel = audited_kernel
        self._read_some(kernel)
        kernel.shutdown()
        kernel.shutdown()  # second call is a no-op, not a re-audit


class TestAuditOffOverhead:
    def test_no_auditor_by_default(self, kernel):
        assert kernel.sim.auditor is None
        assert kernel.auditor is None
