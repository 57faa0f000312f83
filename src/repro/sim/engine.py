"""Core discrete-event engine: events, processes, and the scheduler.

The design follows the classic SimPy structure but is deliberately small:
an :class:`Event` is a one-shot future, a :class:`Process` wraps a Python
generator that yields events, and the :class:`Simulator` dispatches
events in (time, sequence) order.  Simulated time is a float in
microseconds; the unit is a convention of this repo, not enforced by the
engine.

Fast-path notes (see docs/performance.md for the full design):

* The scheduler is a **bucket-batching calendar queue**: the instant the
  run loop is currently draining owns a FIFO bucket (``_cur_fifo``), and
  every event scheduled *at exactly that instant* — the delay-0 flood of
  lock grants, condition broadcasts, completion fan-outs — is appended
  to the bucket with one float compare and a list append: no sequence
  increment, no tuple allocation, no heap sift.  Events at any other
  time take the classic ``(time, seq, event)`` binary-heap fallback.
  Event times in this engine are dense and short-horizon (~1.5 events
  share each instant in the Fig. 5 sweep), which is exactly the regime
  where the bucket absorbs most scheduling traffic.
* Dispatch is **batched per instant**: the run loop advances the clock
  once per distinct time, drains every heap event at that time, then
  drains the bucket — including same-instant wakeups appended *during*
  the drain — without re-popping the heap.  Heap events at an instant
  always carry lower sequence numbers than bucket events (the bucket
  only accepts events scheduled while the instant is live), so dispatch
  order is bit-identical to a single global ``(time, seq)`` heap.
* ``Event.callbacks`` is lazily allocated — ``None`` until the first
  waiter registers, a *bare callable* while there is exactly one, and a
  list only from the second waiter on.  Most events in an experiment
  run are timeouts that exactly one process waits on, and a large
  minority (immediate lock grants, fire-and-forget device completions)
  are never waited on at all; skipping the list allocation per wait is
  worth ~10% of raw engine throughput.  External code must use
  :meth:`Event.add_callback` rather than appending to the attribute.
* Timeouts are pooled per simulator.  A timeout is recycled in the run
  loop only when the engine holds the *only* remaining reference
  (checked with ``sys.getrefcount``), so user code that keeps a yielded
  timeout alive — ``AllOf``/``AnyOf`` children, the device's stored
  completion events, tests poking at ``.value`` — keeps an untouched
  object.  Recycled timeouts are reissued by :meth:`Simulator.timeout`
  with a fresh sequence position, preserving deterministic FIFO
  ordering exactly as if a new object had been allocated.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]

# Timeout recycling needs CPython reference counts; on other runtimes
# the pool simply never fills and every timeout is freshly allocated.
_getrefcount = getattr(sys, "getrefcount", None)

_TIMEOUT_POOL_CAP = 512

# run()'s horizon when no ``until`` is given.
_INF = float("inf")


class SimulationError(Exception):
    """Raised for illegal engine operations (double-trigger, bad yields)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot future tied to a :class:`Simulator`.

    Events move through three states: pending (just created), triggered
    (scheduled to fire), and processed (callbacks ran).  Processes wait on
    events by yielding them.  ``callbacks`` is ``None`` both before the
    first waiter registers and after the event is processed; use
    :meth:`add_callback` to register.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value read before event triggered")
        return self._value

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event is processed.

        ``callbacks`` holds ``None`` (no waiters), a bare callable (one
        waiter — the overwhelmingly common case, so no list is
        allocated), or a list of callables.
        """
        if self._processed:
            raise SimulationError("callback added to already-processed event")
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = fn
        elif type(callbacks) is list:
            callbacks.append(fn)
        else:
            self.callbacks = [callbacks, fn]

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        sim = self.sim
        at = sim.now + delay
        if at == sim._cur_at:
            # Same-instant wakeup while that instant is being drained:
            # join the live bucket, no heap traffic.
            sim._cur_fifo.append(self)
        else:
            sim._seq += 1
            heappush(sim._heap, (at, sim._seq, self))
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        The exception is raised inside every process waiting on the event.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._value = exc
        self._ok = False
        sim = self.sim
        at = sim.now + delay
        if at == sim._cur_at:
            sim._cur_fifo.append(self)
        else:
            sim._seq += 1
            heappush(sim._heap, (at, sim._seq, self))
        return self


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = None
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        at = sim.now + delay
        if at == sim._cur_at:
            sim._cur_fifo.append(self)
        else:
            sim._seq += 1
            heappush(sim._heap, (at, sim._seq, self))


class AllOf(Event):
    """Fires when every child event has fired; value is a list of values."""

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for ev in self._events:
            if ev._processed:
                self._child_done(ev)
            else:
                ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(Event):
    """Fires when the first child event fires; value is that event."""

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf needs at least one event")
        for ev in self._events:
            if ev._processed:
                self._child_done(ev)
                break
            ev.add_callback(self._child_done)

    def _child_done(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            self.fail(ev._value)
        else:
            self.succeed(ev)


class Process(Event):
    """A simulated thread of control wrapping a generator.

    The generator yields :class:`Event` instances (or other processes); it
    resumes when the yielded event fires, receiving the event's value via
    ``send``.  The process itself is an event that fires with the
    generator's return value, so processes can wait on each other.
    """

    __slots__ = ("gen", "name", "_waiting_on", "_bound_resume")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Accessing ``self._resume`` builds a fresh bound method each
        # time; the process registers it as a callback once per wait,
        # so cache one instance for its lifetime.
        self._bound_resume = self._resume
        # Bootstrap: resume on the next scheduling round.
        boot = Event(sim)
        boot._triggered = True
        boot.callbacks = self._bound_resume
        sim._schedule(boot, 0.0)
        self._waiting_on: Optional[Event] = boot

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        target = self._waiting_on
        if target is not None:
            callbacks = target.callbacks
            if type(callbacks) is list:
                try:
                    callbacks.remove(self._bound_resume)
                except ValueError:
                    pass
            elif callbacks == self._bound_resume:
                target.callbacks = None
        self._waiting_on = None
        kick = Event(self.sim)
        kick.fail(Interrupt(cause))
        kick.callbacks = self._bound_resume

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        sim = self.sim
        gen = self.gen
        # The generator below runs in this process's context; sync
        # primitives and the auditor read ``current_process`` to learn
        # who is acquiring/waiting.  _resume never re-enters (triggers
        # always round-trip through the scheduler), so plain
        # set-and-clear is safe.
        sim.current_process = self
        while True:
            try:
                if trigger._ok:
                    target = gen.send(trigger._value)
                else:
                    target = gen.throw(trigger._value)
            except StopIteration as stop:
                sim.current_process = None
                if sim.auditor is not None:
                    sim.auditor.process_exited(self)
                self.succeed(stop.value)
                return
            except Interrupt:
                # An uncaught interrupt terminates the process normally;
                # this is how daemon workers are shut down at teardown.
                sim.current_process = None
                if sim.auditor is not None:
                    sim.auditor.process_exited(self)
                self.succeed(None)
                return
            except Exception as exc:
                sim.current_process = None
                if sim.auditor is not None:
                    sim.auditor.process_exited(self)
                self.fail(exc)
                return
            if target is None:
                # Fast path: "nothing to wait for" (e.g. an uncontended
                # lock acquire).  Resume immediately without touching
                # the scheduler.
                trigger = _IMMEDIATE
                continue
            # Events are the overwhelmingly common yield; probe the
            # attribute instead of paying an isinstance per resume and
            # handle the stray non-event in the except arm.
            try:
                if target._processed:
                    trigger = target
                    continue
            except AttributeError:
                # Synthesise an already-processed failed trigger (never
                # scheduled, so run() won't see it as an orphan failure)
                # and throw it straight back into the generator.
                err = Event(sim)
                err._triggered = True
                err._processed = True
                err._ok = False
                err._value = SimulationError(
                    f"process {self.name!r} yielded non-event: {target!r}"
                )
                trigger = err
                continue
            callbacks = target.callbacks
            if callbacks is None:
                target.callbacks = self._bound_resume
            elif type(callbacks) is list:
                callbacks.append(self._bound_resume)
            else:
                target.callbacks = [callbacks, self._bound_resume]
            self._waiting_on = target
            sim.current_process = None
            return


class _ImmediateEvent(Event):
    """Shared already-processed trigger for the yield-None fast path."""

    __slots__ = ()

    def __init__(self):  # noqa: D401 - deliberately bypasses Event init
        self.sim = None
        self.callbacks = None
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = True


_IMMEDIATE = _ImmediateEvent()


class Simulator:
    """The event loop.  ``now`` is the current simulated time (µs)."""

    __slots__ = ("now", "_heap", "_seq", "_cur_at", "_cur_fifo",
                 "events_processed", "_timeout_pool", "_processes",
                 "current_process", "auditor")

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        # The instant the run loop is currently draining, and its FIFO
        # bucket.  Scheduling at exactly this time appends straight to
        # the live batch; -1.0 means "no drain active" (times are never
        # negative, so the compare cannot false-positive).
        self._cur_at: float = -1.0
        self._cur_fifo: list[Event] = []
        # Events dispatched so far; the perf suite divides this by
        # wall-clock to report simulated events per second.
        self.events_processed = 0
        # Processed Timeout objects with no surviving external
        # references, ready for reissue by timeout().
        self._timeout_pool: list[Timeout] = []
        self._processes: list[Process] = []
        # The process whose generator is executing right now (None
        # between resumptions).  Sync primitives use it to attribute
        # acquires/waits to a simulated thread.
        self.current_process: Optional[Process] = None
        # Optional invariant auditor (repro.sim.audit.Auditor).  When
        # None — the default — every audit site is a single None check.
        self.auditor: Optional[Any] = None

    # -- scheduling ------------------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        at = self.now + delay
        if at == self._cur_at:
            self._cur_fifo.append(event)
        else:
            self._seq += 1
            heappush(self._heap, (at, self._seq, event))

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            ev = pool.pop()
            ev._value = value
            ev._ok = True
            ev._triggered = True
            ev._processed = False
            ev.delay = delay
            at = self.now + delay
            if at == self._cur_at:
                self._cur_fifo.append(ev)
            else:
                self._seq += 1
                heappush(self._heap, (at, self._seq, ev))
            return ev
        return Timeout(self, delay, value)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def process(self, gen: Generator, name: str = "") -> Process:
        proc = Process(self, gen, name=name)
        self._processes.append(proc)
        return proc

    # -- running ---------------------------------------------------------

    def step(self) -> None:
        """Process one event in (time, seq) order.

        Test/debug entry point; the hot loop is :meth:`run`.  Outside a
        run the live bucket is always empty (run() flushes it even on
        exceptions), so stepping works on the heap alone.
        """
        at, _seq, event = heappop(self._heap)
        self.now = at
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks is not None:
            if type(callbacks) is list:
                for cb in callbacks:
                    cb(event)
            else:
                callbacks(event)
        elif not event._ok:
            # A failed event nobody waited on: surface the error rather
            # than letting it pass silently.
            raise event._value
        if (
            type(event) is Timeout
            and _getrefcount is not None
            and _getrefcount(event) == 2  # `event` local + getrefcount arg
            and len(self._timeout_pool) < _TIMEOUT_POOL_CAP
        ):
            self._timeout_pool.append(event)

    def _flush_cur_fifo(self, pos: int) -> None:
        """Exception recovery: push undispatched bucket events back onto
        the heap (fresh seqs keep their FIFO order) so a later run()
        resumes exactly where this one stopped."""
        fifo = self._cur_fifo
        at = self._cur_at
        self._cur_at = -1.0
        for event in fifo[pos:]:
            self._seq += 1
            heappush(self._heap, (at, self._seq, event))
        fifo.clear()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the final simulated time.  Unhandled process failures
        propagate to the caller.

        Batched dispatch: the loop advances the clock to a heap event's
        time, marks that instant live, and dispatches.  If the dispatch
        coalesced same-instant wakeups into the bucket, the remaining
        heap events at this time are drained first (they were scheduled
        before the instant went live, so they carry lower seqs), then
        the bucket in FIFO order — including events appended while the
        bucket itself drains.  When nothing lands in the bucket — the
        common case for pure-timeout stretches — the only extra work
        versus a plain heap loop is two slot stores and one truthiness
        check per event.  The engine spends most of its self-time here,
        so locals are hoisted.  One loop serves bounded and unbounded
        runs: without ``until`` the horizon is infinite, so its compare
        never stops the loop.
        """
        heap = self._heap
        fifo = self._cur_fifo
        pool = self._timeout_pool
        pop = heappop
        timeout_t = Timeout
        getref = _getrefcount
        cap = _TIMEOUT_POOL_CAP
        horizon = _INF if until is None else until
        processed = 0
        try:
            while heap:
                if heap[0][0] > horizon:
                    self.now = until
                    break
                at, _seq, event = pop(heap)
                self.now = at
                self._cur_at = at
                while True:
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks is not None:
                        if type(callbacks) is list:
                            for cb in callbacks:
                                cb(event)
                        else:
                            callbacks(event)
                    elif not event._ok:
                        raise event._value
                    if (
                        type(event) is timeout_t
                        and getref is not None
                        and getref(event) == 2
                        and len(pool) < cap
                    ):
                        pool.append(event)
                    # Once wakeups land in the bucket, the rest of the
                    # heap events at this instant must dispatch before it
                    # (lower seq — scheduled before the instant went
                    # live).
                    if fifo and heap and heap[0][0] == at:
                        _at, _s, event = pop(heap)
                        continue
                    break
                if fifo:
                    pos = 0
                    try:
                        while pos < len(fifo):
                            event = fifo[pos]
                            pos += 1
                            processed += 1
                            callbacks = event.callbacks
                            event.callbacks = None
                            event._processed = True
                            if callbacks is not None:
                                if type(callbacks) is list:
                                    for cb in callbacks:
                                        cb(event)
                                else:
                                    callbacks(event)
                            elif not event._ok:
                                raise event._value
                            if (
                                type(event) is timeout_t
                                and getref is not None
                                # `event` local + getrefcount arg + the
                                # bucket slot it occupies.
                                and getref(event) == 3
                                and len(pool) < cap
                            ):
                                pool.append(event)
                    except BaseException:
                        self._flush_cur_fifo(pos)
                        raise
                    fifo.clear()
        except BaseException:
            if self._cur_at >= 0.0 and fifo:
                # A dispatch raised before the bucket drain began:
                # everything in the bucket is undispatched.
                self._flush_cur_fifo(0)
            raise
        finally:
            self._cur_at = -1.0
            self.events_processed += processed
        return self.now
