"""A fixed pure-Python loop, run in short slices during the simulation
phases, that measures how fast the host runs while the program runs.

On a shared 2-vCPU host the same round of the same seed took from
3.2 to 5.7 s, the process's CPU time moving with wall time, and whole
runs ran slower while neighbours were busy.  A ``Ticker`` interrupts
each phase every ``INTERVAL_S`` of host time (a ``SIGALRM`` interval
timer, handled on the main thread between two bytecodes of the
program) and runs ``SLICE_EVENTS`` events of the loop, timing each
slice.  The slices see the same bursts of contention as the phase
around them, and the benchmark reports host time as a multiple of the
mean slice (``host_x``), which cancels the slowdown both see.  The
slice time is taken out of the phase's time.

The loop does what the simulator spends its time on: a heap of pending
events, generator processes resumed in time order, and an
``OrderedDict`` LRU of small slotted objects, kept full so that every
slice does the same work.  It imports nothing from the program, shares
no state with it, and must not change between the commits it compares:
a change here moves every ``host_x``.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Optional

PROCESSES = 16
KEY_SPACE = 200_000
CAPACITY = 25_000
WARM_EVENTS = 60_000      # fills the LRU before the first slice
SLICE_EVENTS = 1_000
INTERVAL_S = 0.05


class _Page:
    __slots__ = ("key", "owner", "hits")

    def __init__(self, key: int, owner: int):
        self.key = key
        self.owner = owner
        self.hits = 0


class _Lru:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.pages: OrderedDict[int, _Page] = OrderedDict()

    def touch(self, key: int, owner: int) -> bool:
        page = self.pages.get(key)
        if page is not None:
            page.hits += 1
            self.pages.move_to_end(key)
            return True
        self.pages[key] = _Page(key, owner)
        if len(self.pages) > self.capacity:
            self.pages.popitem(last=False)
        return False


class Loop:
    """The reference loop: PROCESSES endless generator processes on one
    event heap, each touching skewed random keys of one LRU."""

    def __init__(self):
        self.rng = random.Random(12345)
        self.lru = _Lru(CAPACITY)
        self.hits = 0
        self.seq = PROCESSES
        self.heap = [(0.0, pid, self._process(pid))
                     for pid in range(PROCESSES)]
        self.step(WARM_EVENTS)

    def _process(self, pid: int):
        rng, lru = self.rng, self.lru
        base = pid * 7919
        while True:
            # A skewed key: half the touches go to a tenth of the space.
            span = KEY_SPACE // 10 if rng.random() < 0.5 else KEY_SPACE
            if lru.touch((base + rng.randrange(span)) % KEY_SPACE, pid):
                self.hits += 1
            yield rng.random() * 10.0

    def step(self, events: int) -> None:
        """Resume ``events`` processes in simulated-time order."""
        heap = self.heap
        for _ in range(events):
            now, _, proc = heapq.heappop(heap)
            heapq.heappush(heap, (now + next(proc), self.seq, proc))
            self.seq += 1


class Ticker:
    """Runs timed slices of a ``Loop`` while ``active``.

    The loop is built (and warmed) on first use, inside the first phase
    rather than before it, so that it is not counted as set-up.  The
    cyclic collector is off during a slice (the loop makes no cycles):
    a collection there would scan the program's heap and time the
    program's state, not the host.
    """

    def __init__(self):
        self.loop: Optional[Loop] = None
        self.slices: list[float] = []
        self._busy = False

    def tick(self, *_signal) -> None:
        """Run and time one slice; also the ``SIGALRM`` handler."""
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            if self.loop is None:
                self.loop = Loop()
            start = time.perf_counter()
            self.loop.step(SLICE_EVENTS)
            self.slices.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    @contextmanager
    def active(self) -> Iterator[None]:
        """One slice now, then one every ``INTERVAL_S`` until exit."""
        self.tick()
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
