"""Simulated synchronization primitives with FIFO queueing.

Each primitive takes an optional :class:`~repro.sim.stats.LockStats`
record (or a registry + category) and charges the simulated time a waiter
spends queued to it.  This is how the reproduction measures the paper's
lock-contention numbers: the cache-tree rw-lock, inode rw-lock, and
Cross-OS bitmap rw-lock are all instances of :class:`RwLock` wired to
different stat categories.

When an :class:`~repro.sim.audit.Auditor` is attached to the simulator,
every primitive additionally reports acquire/block/grant/release
transitions so the auditor can maintain its wait-for graph (deadlock
detection), lock-order history, and leak checks.

One code path: each primitive has a single ``acquire*``/``release*``
implementation for plain, audited and traced runs alike, so the audit
and the span trace check the same code whose numbers get reported.  The
auditor (``sim.auditor``) and the span observer (``stats.observer``)
are captured once in ``__init__`` — the kernel wires both *before*
building any subsystem (see ``Kernel.__init__`` ordering) and they stay
fixed for the kernel's lifetime — and each hook is one ``is not None``
check inline.  :class:`LockStats` wait and hold totals are recorded
either way: they are experiment outputs, not diagnostics.

Usage inside a process generator::

    yield lock.acquire()
    try:
        ...critical section...
    finally:
        lock.release()

or, for the common scoped pattern::

    yield from lock.held(critical_section())
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.stats import LockStats

__all__ = ["Condition", "Lock", "Queue", "RwLock", "Semaphore"]


class Lock:
    """A mutual-exclusion lock with FIFO granting."""

    __slots__ = ("sim", "name", "stats", "_locked", "_waiters",
                 "_acquired_at", "_auditor", "_observer")

    def __init__(self, sim: Simulator, name: str = "lock",
                 stats: Optional[LockStats] = None):
        self.sim = sim
        self.name = name
        self.stats = stats
        self._locked = False
        self._waiters: Deque[tuple[Event, float]] = deque()
        self._acquired_at = 0.0
        self._auditor = sim.auditor
        self._observer = stats.observer if stats is not None else None
        if self._auditor is not None:
            self._auditor.lock_registered(self)

    @property
    def locked(self) -> bool:
        return self._locked

    # acquire() returns None when granted immediately (yielding None
    # resumes the process with no event-heap traffic) or an event that
    # fires when the lock is eventually granted.

    def acquire(self) -> Optional[Event]:
        if not self._locked:
            self._locked = True
            self._acquired_at = self.sim.now
            if self.stats is not None:
                self.stats.acquisitions += 1
            if self._auditor is not None:
                self._auditor.lock_acquired(self)
            return None
        ev = Event(self.sim)
        self._waiters.append((ev, self.sim.now))
        if self._auditor is not None:
            self._auditor.lock_blocked(self, ev)
        return ev

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"release of unheld lock {self.name!r}")
        now = self.sim.now
        stats = self.stats
        obs = self._observer
        if stats is not None:
            stats.total_hold += now - self._acquired_at
            if obs is not None:
                obs.lock_hold(stats.category, self._acquired_at,
                              lock=self.name)
        if self._auditor is not None:
            self._auditor.lock_released(self)
        if self._waiters:
            ev, enqueued = self._waiters.popleft()
            self._acquired_at = now
            if stats is not None:
                stats.record_acquire(now - enqueued)
                if obs is not None and now > enqueued:
                    obs.lock_wait(stats.category, enqueued, lock=self.name)
            if self._auditor is not None:
                self._auditor.lock_granted(self, ev)
            ev.succeed()
        else:
            self._locked = False

    def held(self, body: Generator) -> Generator:
        """Run generator ``body`` while holding the lock."""
        yield self.acquire()
        try:
            result = yield from body
        finally:
            self.release()
        return result


class RwLock:
    """A reader-writer lock, writer-preferring, FIFO within each class.

    Writer preference mirrors the kernel rw-semaphore behaviour that makes
    prefetch inserts (writers on the cache tree) block readers — the
    contention pathology §3.2 of the paper describes.

    Reader *hold* time is recorded per reader grant: grant timestamps are
    queued FIFO and matched to releases.  The aggregate
    ``LockStats.total_hold`` is exact regardless of release order (the
    total is sum-of-releases minus sum-of-grants, which is invariant to
    the pairing); only per-span durations assume FIFO release.
    """

    __slots__ = ("sim", "name", "stats", "_readers", "_writer",
                 "_wait_readers", "_wait_writers", "_writer_since",
                 "_reader_since", "_auditor", "_observer")

    def __init__(self, sim: Simulator, name: str = "rwlock",
                 stats: Optional[LockStats] = None):
        self.sim = sim
        self.name = name
        self.stats = stats
        self._readers = 0
        self._writer = False
        self._wait_readers: Deque[tuple[Event, float]] = deque()
        self._wait_writers: Deque[tuple[Event, float]] = deque()
        self._writer_since = 0.0
        # Grant times of current read holders (FIFO-paired at release).
        self._reader_since: Deque[float] = deque()
        self._auditor = sim.auditor
        self._observer = stats.observer if stats is not None else None
        if self._auditor is not None:
            self._auditor.lock_registered(self)

    @property
    def read_locked(self) -> bool:
        return self._readers > 0

    @property
    def write_locked(self) -> bool:
        return self._writer

    # acquire_*() return None when granted immediately, else an event
    # (see Lock).

    def acquire_read(self) -> Optional[Event]:
        if not self._writer and not self._wait_writers:
            self._readers += 1
            if self.stats is not None:
                self.stats.acquisitions += 1
                self._reader_since.append(self.sim.now)
            if self._auditor is not None:
                self._auditor.lock_acquired(self, mode="read")
            return None
        ev = Event(self.sim)
        self._wait_readers.append((ev, self.sim.now))
        if self._auditor is not None:
            self._auditor.lock_blocked(self, ev, mode="read")
        return ev

    def acquire_write(self) -> Optional[Event]:
        if not self._writer and self._readers == 0:
            self._writer = True
            self._writer_since = self.sim.now
            if self.stats is not None:
                self.stats.acquisitions += 1
            if self._auditor is not None:
                self._auditor.lock_acquired(self, mode="write")
            return None
        ev = Event(self.sim)
        self._wait_writers.append((ev, self.sim.now))
        if self._auditor is not None:
            self._auditor.lock_blocked(self, ev, mode="write")
        return ev

    def release_read(self) -> None:
        if self._readers <= 0:
            raise SimulationError(f"release_read of unheld {self.name!r}")
        stats = self.stats
        if stats is not None and self._reader_since:
            since = self._reader_since.popleft()
            stats.total_hold += self.sim.now - since
            if self._observer is not None:
                self._observer.lock_hold(stats.category, since,
                                         lock=self.name)
        if self._auditor is not None:
            self._auditor.lock_released(self, mode="read")
        self._readers -= 1
        if self._readers == 0 and (self._wait_writers or self._wait_readers):
            self._grant()

    def release_write(self) -> None:
        if not self._writer:
            raise SimulationError(f"release_write of unheld {self.name!r}")
        stats = self.stats
        if stats is not None:
            stats.total_hold += self.sim.now - self._writer_since
            if self._observer is not None:
                self._observer.lock_hold(stats.category, self._writer_since,
                                         lock=self.name, writer=True)
        if self._auditor is not None:
            self._auditor.lock_released(self, mode="write")
        self._writer = False
        if self._wait_writers or self._wait_readers:
            self._grant()

    def _granted_after_wait(self, enqueued: float) -> None:
        stats = self.stats
        if stats is None:
            return
        stats.record_acquire(self.sim.now - enqueued)
        obs = self._observer
        if obs is not None and self.sim.now > enqueued:
            obs.lock_wait(stats.category, enqueued, lock=self.name)

    def _grant(self) -> None:
        if self._wait_writers:
            ev, enqueued = self._wait_writers.popleft()
            self._writer = True
            self._writer_since = self.sim.now
            self._granted_after_wait(enqueued)
            if self._auditor is not None:
                self._auditor.lock_granted(self, ev, mode="write")
            ev.succeed()
            return
        while self._wait_readers:
            ev, enqueued = self._wait_readers.popleft()
            self._readers += 1
            self._granted_after_wait(enqueued)
            if self.stats is not None:
                self._reader_since.append(self.sim.now)
            if self._auditor is not None:
                self._auditor.lock_granted(self, ev, mode="read")
            ev.succeed()

    def read_held(self, body: Generator) -> Generator:
        yield self.acquire_read()
        try:
            result = yield from body
        finally:
            self.release_read()
        return result

    def write_held(self, body: Generator) -> Generator:
        yield self.acquire_write()
        try:
            result = yield from body
        finally:
            self.release_write()
        return result


class Semaphore:
    """A counting semaphore; used for device queue-depth slots."""

    __slots__ = ("sim", "name", "capacity", "stats", "_in_use",
                 "_waiters", "_auditor", "_observer")

    def __init__(self, sim: Simulator, capacity: int, name: str = "sem",
                 stats: Optional[LockStats] = None):
        if capacity <= 0:
            raise SimulationError(f"semaphore capacity must be > 0: {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.stats = stats
        self._in_use = 0
        self._waiters: Deque[tuple[Event, float]] = deque()
        self._auditor = sim.auditor
        self._observer = stats.observer if stats is not None else None
        if self._auditor is not None:
            self._auditor.lock_registered(self)

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queued(self) -> int:
        return len(self._waiters)

    # acquire() returns None when a slot is free immediately, else an
    # event.

    def acquire(self) -> Optional[Event]:
        if self._in_use < self.capacity:
            self._in_use += 1
            if self.stats is not None:
                self.stats.acquisitions += 1
            if self._auditor is not None:
                self._auditor.lock_acquired(self, mode="slot")
            return None
        ev = Event(self.sim)
        self._waiters.append((ev, self.sim.now))
        if self._auditor is not None:
            self._auditor.lock_blocked(self, ev, mode="slot")
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle semaphore {self.name!r}")
        if self._auditor is not None:
            self._auditor.lock_released(self, mode="slot")
        if self._waiters:
            ev, enqueued = self._waiters.popleft()
            stats = self.stats
            if stats is not None:
                stats.record_acquire(self.sim.now - enqueued)
                obs = self._observer
                if obs is not None and self.sim.now > enqueued:
                    obs.lock_wait(stats.category, enqueued, lock=self.name)
            if self._auditor is not None:
                self._auditor.lock_granted(self, ev, mode="slot")
            ev.succeed()
        else:
            self._in_use -= 1


class Condition:
    """Broadcast condition variable (no associated mutex; sim is serial)."""

    __slots__ = ("sim", "name", "_waiters")

    def __init__(self, sim: Simulator, name: str = "cond"):
        self.sim = sim
        self.name = name
        self._waiters: list[Event] = []

    def wait(self) -> Event:
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def notify_all(self, value: Any = None) -> None:
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.succeed(value)

    def notify_one(self, value: Any = None) -> None:
        if self._waiters:
            self._waiters.pop(0).succeed(value)


class Queue:
    """Unbounded FIFO queue for producer/consumer processes.

    ``get`` returns an event that fires with the next item; waiting
    consumers are served FIFO.  Used for the CROSS-LIB background
    prefetch-worker request queue.
    """

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: Simulator, name: str = "queue"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if self._items:
            return True, self._items.popleft()
        return False, None
