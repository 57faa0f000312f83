"""Unit tests for simulated locks, semaphores, conditions, and queues."""

import pytest

from repro.sim import (
    Condition,
    Lock,
    Queue,
    RwLock,
    Semaphore,
    SimulationError,
    Simulator,
    StatsRegistry,
)
from repro.sim.audit import Auditor
from repro.sim.observe import Observer
from repro.sim.trace import Tracer


@pytest.fixture
def sim():
    return Simulator()


class TestLock:
    def test_fifo_mutual_exclusion(self, sim):
        lock = Lock(sim)
        order = []

        def worker(name):
            yield lock.acquire()
            try:
                order.append((name, sim.now))
                yield sim.timeout(10)
            finally:
                lock.release()

        for name in "abc":
            sim.process(worker(name))
        sim.run()
        assert order == [("a", 0.0), ("b", 10.0), ("c", 20.0)]

    def test_release_unheld_raises(self, sim):
        lock = Lock(sim)
        with pytest.raises(SimulationError):
            lock.release()

    def test_wait_time_recorded(self, sim):
        registry = StatsRegistry()
        lock = Lock(sim, stats=registry.lock_stats("demo"))

        def worker():
            yield lock.acquire()
            yield sim.timeout(7)
            lock.release()

        sim.process(worker())
        sim.process(worker())
        sim.run()
        stats = registry.lock_stats("demo")
        assert stats.acquisitions == 2
        assert stats.contended == 1
        assert stats.total_wait == 7.0

    def test_held_helper_releases_on_error(self, sim):
        lock = Lock(sim)

        def body():
            yield sim.timeout(1)
            raise ValueError("inner")

        def worker():
            with pytest.raises(ValueError):
                yield from lock.held(body())
            return lock.locked

        p = sim.process(worker())
        sim.run()
        assert p.value is False


class TestRwLock:
    def test_readers_share(self, sim):
        rw = RwLock(sim)
        active = []

        def reader(name):
            yield rw.acquire_read()
            active.append(name)
            yield sim.timeout(5)
            rw.release_read()

        sim.process(reader("r1"))
        sim.process(reader("r2"))
        sim.run(until=1)
        assert sorted(active) == ["r1", "r2"]

    def test_writer_excludes_readers(self, sim):
        rw = RwLock(sim)
        events = []

        def writer():
            yield rw.acquire_write()
            events.append(("w", sim.now))
            yield sim.timeout(10)
            rw.release_write()

        def reader():
            yield sim.timeout(1)  # arrive while writer holds
            yield rw.acquire_read()
            events.append(("r", sim.now))
            rw.release_read()

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert events == [("w", 0.0), ("r", 10.0)]

    def test_writer_preference_blocks_new_readers(self, sim):
        rw = RwLock(sim)
        events = []

        def long_reader():
            yield rw.acquire_read()
            yield sim.timeout(10)
            rw.release_read()

        def writer():
            yield sim.timeout(1)
            yield rw.acquire_write()
            events.append(("w", sim.now))
            yield sim.timeout(5)
            rw.release_write()

        def late_reader():
            yield sim.timeout(2)  # after writer queued
            yield rw.acquire_read()
            events.append(("r", sim.now))
            rw.release_read()

        sim.process(long_reader())
        sim.process(writer())
        sim.process(late_reader())
        sim.run()
        # The late reader must wait for the queued writer.
        assert events == [("w", 10.0), ("r", 15.0)]

    def test_release_unheld_raises(self, sim):
        rw = RwLock(sim)
        with pytest.raises(SimulationError):
            rw.release_read()
        with pytest.raises(SimulationError):
            rw.release_write()

    def test_read_held_and_write_held_helpers(self, sim):
        rw = RwLock(sim)

        def body():
            yield sim.timeout(1)
            return "x"

        def worker():
            a = yield from rw.read_held(body())
            b = yield from rw.write_held(body())
            return (a, b, rw.read_locked, rw.write_locked)

        p = sim.process(worker())
        sim.run()
        assert p.value == ("x", "x", False, False)


class TestSemaphore:
    def test_capacity_limits_concurrency(self, sim):
        sem = Semaphore(sim, capacity=2)
        peak = [0]
        active = [0]

        def worker():
            yield sem.acquire()
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield sim.timeout(5)
            active[0] -= 1
            sem.release()

        for _ in range(5):
            sim.process(worker())
        sim.run()
        assert peak[0] == 2

    def test_bad_capacity(self, sim):
        with pytest.raises(SimulationError):
            Semaphore(sim, capacity=0)

    def test_release_idle_raises(self, sim):
        sem = Semaphore(sim, capacity=1)
        with pytest.raises(SimulationError):
            sem.release()


class TestCondition:
    def test_notify_all_wakes_every_waiter(self, sim):
        cond = Condition(sim)
        woken = []

        def waiter(name):
            value = yield cond.wait()
            woken.append((name, value))

        def notifier():
            yield sim.timeout(3)
            cond.notify_all("go")

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.process(notifier())
        sim.run()
        assert sorted(woken) == [("a", "go"), ("b", "go")]

    def test_notify_one_wakes_single_waiter(self, sim):
        cond = Condition(sim)
        woken = []

        def waiter(name):
            yield cond.wait()
            woken.append(name)

        def notifier():
            yield sim.timeout(1)
            cond.notify_one()

        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.process(notifier())
        sim.run(until=10)
        assert woken == ["a"]

    def test_notify_without_waiters_is_noop(self, sim):
        cond = Condition(sim)
        cond.notify_all()
        cond.notify_one()  # must not raise


class TestQueue:
    def test_put_then_get(self, sim):
        q = Queue(sim)
        q.put("item")

        def consumer():
            value = yield q.get()
            return value

        p = sim.process(consumer())
        sim.run()
        assert p.value == "item"

    def test_get_blocks_until_put(self, sim):
        q = Queue(sim)
        got = []

        def consumer():
            got.append((yield q.get()))

        def producer():
            yield sim.timeout(4)
            q.put(99)

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [99]
        assert sim.now == 4

    def test_fifo_consumers(self, sim):
        q = Queue(sim)
        got = []

        def consumer(name):
            value = yield q.get()
            got.append((name, value))

        sim.process(consumer("first"))
        sim.process(consumer("second"))
        q.put(1)
        q.put(2)
        sim.run()
        assert got == [("first", 1), ("second", 2)]

    def test_try_get(self, sim):
        q = Queue(sim)
        assert q.try_get() == (False, None)
        q.put("x")
        assert q.try_get() == (True, "x")
        assert len(q) == 0


class TestRwLockHoldAccounting:
    """Reader hold times must be charged just like writer holds; the
    Table-1 lock-profile breakdown depends on it."""

    def test_reader_holds_recorded(self, sim):
        registry = StatsRegistry()
        rw = RwLock(sim, stats=registry.lock_stats("tree"))

        def reader(delay):
            yield rw.acquire_read()
            yield sim.timeout(delay)
            rw.release_read()

        sim.process(reader(5))
        sim.process(reader(7))
        sim.run()
        assert registry.lock_stats("tree").total_hold == 12.0

    def test_reader_hold_measured_from_grant(self, sim):
        """A reader queued behind a writer is charged from grant time,
        not from when it started waiting."""
        registry = StatsRegistry()
        rw = RwLock(sim, stats=registry.lock_stats("tree"))

        def writer():
            yield rw.acquire_write()
            yield sim.timeout(10)
            rw.release_write()

        def reader():
            yield sim.timeout(1)      # arrive while writer holds
            yield rw.acquire_read()   # granted at t=10
            yield sim.timeout(3)
            rw.release_read()         # t=13

        sim.process(writer())
        sim.process(reader())
        sim.run()
        stats = registry.lock_stats("tree")
        # writer held 10, reader held 3; a wait-time-as-hold bug would
        # report 10 + 9 + 3 instead.
        assert stats.total_hold == 13.0
        assert stats.total_wait == 9.0


# (name, arrival, hold, mode): overlapping arrivals so every primitive
# queues waiters, and, on the RwLock, writers arrive behind readers and
# readers behind writers.
_SCHEDULE = [
    ("a", 0.0, 5.0, "w"), ("b", 1.0, 3.0, "r"), ("c", 1.0, 4.0, "r"),
    ("d", 2.0, 2.0, "w"), ("e", 2.0, 6.0, "r"), ("f", 3.0, 1.0, "r"),
    ("g", 9.0, 1.0, "w"), ("h", 9.0, 2.0, "r"), ("i", 30.0, 1.0, "w"),
]


class _CountingAuditor(Auditor):
    """Counts queued grants, to show the auditor hooks actually ran."""

    def __init__(self, sim):
        super().__init__(sim)
        self.grants = 0

    def lock_granted(self, prim, ev, mode=""):
        self.grants += 1
        super().lock_granted(prim, ev, mode)


def _contended_run(kind, attach):
    """Run _SCHEDULE on one primitive; returns (grant order, stats)."""
    sim = Simulator()
    registry = StatsRegistry()
    auditor = observer = None
    if attach == "auditor":
        auditor = _CountingAuditor(sim)
    elif attach == "observer":
        observer = Observer(sim, Tracer(), emit_holds=True)
        registry.attach_observer(observer)
    stats = registry.lock_stats(kind)
    if kind == "lock":
        prim = Lock(sim, stats=stats)
        ops = {"r": (prim.acquire, prim.release)}
        ops["w"] = ops["r"]
    elif kind == "rwlock":
        prim = RwLock(sim, stats=stats)
        ops = {"r": (prim.acquire_read, prim.release_read),
               "w": (prim.acquire_write, prim.release_write)}
    else:
        prim = Semaphore(sim, 2, stats=stats)
        ops = {"r": (prim.acquire, prim.release)}
        ops["w"] = ops["r"]
    grants = []

    def worker(name, arrival, hold, mode):
        acquire, release = ops[mode]
        yield sim.timeout(arrival)
        yield acquire()
        grants.append((name, sim.now))
        yield sim.timeout(hold)
        release()

    for name, arrival, hold, mode in _SCHEDULE:
        sim.process(worker(name, arrival, hold, mode), name=name)
    sim.run()
    if auditor is not None:
        auditor.final_check()
        assert auditor.grants > 0
    if observer is not None:
        # The span feed saw every wait the stats did.
        assert observer.profile.total_wait == stats.total_wait
    return grants, (stats.acquisitions, stats.contended,
                    stats.total_wait, stats.total_hold)


class TestInstrumentationParity:
    """Plain, audited and traced runs go through the same primitive code,
    so they grant in the same order and record the same LockStats."""

    @pytest.mark.parametrize("kind", ["lock", "rwlock", "semaphore"])
    def test_same_grants_and_stats(self, kind):
        plain = _contended_run(kind, None)
        grants, (acquisitions, contended, _wait, _hold) = plain
        assert acquisitions == len(_SCHEDULE)
        assert contended > 0
        assert len(grants) == len(_SCHEDULE)
        assert _contended_run(kind, "auditor") == plain
        assert _contended_run(kind, "observer") == plain
