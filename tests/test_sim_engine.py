"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import (
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(5.0)
        seen.append(sim.now)
        yield sim.timeout(2.5)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [5.0, 7.5]
    assert sim.now == 7.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_processes_interleave_by_time():
    sim = Simulator()
    order = []

    def proc(name, delay):
        yield sim.timeout(delay)
        order.append(name)

    sim.process(proc("b", 2))
    sim.process(proc("a", 1))
    sim.process(proc("c", 3))
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_via_yield_from():
    sim = Simulator()

    def inner():
        yield sim.timeout(1)
        return 41

    def outer():
        value = yield from inner()
        return value + 1

    proc = sim.process(outer())
    sim.run()
    assert proc.value == 42


def test_process_waits_on_process():
    sim = Simulator()

    def worker():
        yield sim.timeout(3)
        return "done"

    def waiter(target):
        value = yield target
        return value

    worker_proc = sim.process(worker())
    waiter_proc = sim.process(waiter(worker_proc))
    sim.run()
    assert waiter_proc.value == "done"
    assert sim.now == 3


def test_event_succeed_once_only():
    sim = Simulator()
    ev = Event(sim)
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        _ = ev.value


def test_failed_event_propagates_into_waiter():
    sim = Simulator()

    def proc(ev):
        with pytest.raises(ValueError):
            yield ev

    ev = Event(sim)
    sim.process(proc(ev))
    ev.fail(ValueError("boom"))
    sim.run()


def test_unwaited_failure_surfaces_from_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(1)
        raise RuntimeError("unhandled")

    sim.process(proc())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_all_of_collects_values():
    sim = Simulator()

    def proc():
        values = yield sim.all_of([sim.timeout(1, "a"),
                                   sim.timeout(3, "b"),
                                   sim.timeout(2, "c")])
        return values

    p = sim.process(proc())
    sim.run()
    assert p.value == ["a", "b", "c"]
    assert sim.now == 3


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        values = yield sim.all_of([])
        return values

    p = sim.process(proc())
    sim.run()
    assert p.value == []


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc():
        first = yield sim.any_of([sim.timeout(5, "slow"),
                                  sim.timeout(1, "fast")])
        return first.value

    p = sim.process(proc())
    sim.run(until=10)
    assert p.value == "fast"


def test_any_of_requires_events():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_yield_non_event_raises_in_process():
    sim = Simulator()

    def proc():
        with pytest.raises(SimulationError):
            yield 42
        return "recovered"

    p = sim.process(proc())
    sim.run()
    assert p.value == "recovered"


def test_interrupt_terminates_idle_process_quietly():
    sim = Simulator()

    def daemon():
        while True:
            yield sim.timeout(100)

    def killer(target):
        yield sim.timeout(5)
        target.interrupt("stop")

    d = sim.process(daemon())
    sim.process(killer(d))
    sim.run(until=50)
    assert d.processed
    assert d.ok


def test_interrupt_catchable():
    sim = Simulator()
    caught = []

    def daemon():
        try:
            yield sim.timeout(100)
        except Interrupt as exc:
            caught.append(exc.cause)
        return "cleaned"

    def killer(target):
        yield sim.timeout(5)
        target.interrupt("reason")

    d = sim.process(daemon())
    sim.process(killer(d))
    sim.run()
    assert caught == ["reason"]
    assert d.value == "cleaned"


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    p = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(100)

    sim.process(proc())
    final = sim.run(until=10)
    assert final == 10


def test_run_drains_heap_naturally():
    sim = Simulator()

    def proc():
        for _ in range(3):
            yield sim.timeout(1)

    sim.process(proc())
    assert sim.run() == 3.0


def _bucket_schedule(sim):
    """Processes whose wakeups coalesce into the same-instant bucket:
    a notifier wakes waiters at the instant where other timeouts expire,
    and each woken waiter fires a delay-0 event of its own."""
    from repro.sim import Condition

    order = []
    cond = Condition(sim)

    def waiter(name):
        yield cond.wait()
        order.append((name, sim.now))
        follow = sim.event()
        follow.succeed(name)
        got = yield follow
        order.append((got + "'", sim.now))
        yield sim.timeout(2)
        order.append((name + "+2", sim.now))

    def sleeper(name, delay):
        yield sim.timeout(delay)
        order.append((name, sim.now))

    def notifier():
        yield sim.timeout(5)
        cond.notify_all()
        order.append(("notify", sim.now))

    for name in "abc":
        sim.process(waiter(name))
    sim.process(sleeper("s1", 5))
    sim.process(notifier())
    sim.process(sleeper("s2", 5))
    sim.process(sleeper("s3", 7))
    return order


def test_bounded_run_past_last_event_matches_unbounded():
    """One dispatch loop serves run() and run(until=...): a horizon past
    the last event dispatches the same events in the same order."""
    unbounded = Simulator()
    order = _bucket_schedule(unbounded)
    assert unbounded.run() == 7.0
    bounded = Simulator()
    bounded_order = _bucket_schedule(bounded)
    assert bounded.run(until=1000.0) == 7.0
    assert bounded_order == order
    assert bounded.events_processed == unbounded.events_processed
    # The schedule did coalesce: waiters woke and re-woke at t=5, in
    # FIFO order, after the heap events already due at that instant.
    assert order[:8] == [("s1", 5.0), ("notify", 5.0), ("s2", 5.0),
                         ("a", 5.0), ("b", 5.0), ("c", 5.0),
                         ("a'", 5.0), ("b'", 5.0)]


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(name):
        yield sim.timeout(1)
        order.append(name)

    for name in "abc":
        sim.process(proc(name))
    sim.run()
    assert order == ["a", "b", "c"]


# -- interrupt/failure edge cases ------------------------------------------


def test_interrupt_while_waiting_on_all_of():
    """Interrupting a process parked on a composite event must detach
    its resume callback: when the children later fire, the process is
    not resumed a second time."""
    sim = Simulator()
    log = []

    def waiter():
        try:
            yield sim.all_of([sim.timeout(50), sim.timeout(80)])
            log.append("completed")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause))
            # Keep living past the children's fire times.
            yield sim.timeout(100)
            log.append("after")

    def killer(target):
        yield sim.timeout(10)
        target.interrupt("stop")

    p = sim.process(waiter())
    sim.process(killer(p))
    sim.run()
    assert log == [("interrupted", "stop"), "after"]


def test_interrupt_while_waiting_on_any_of():
    sim = Simulator()
    log = []

    def waiter():
        try:
            yield sim.any_of([sim.timeout(50), sim.timeout(80)])
            log.append("completed")
        except Interrupt as intr:
            log.append(("interrupted", intr.cause))
            yield sim.timeout(100)
            log.append("after")

    def killer(target):
        yield sim.timeout(10)
        target.interrupt("teardown")

    p = sim.process(waiter())
    sim.process(killer(p))
    sim.run()
    assert log == [("interrupted", "teardown"), "after"]


def test_any_of_child_failure_propagates_first():
    """AnyOf fails as soon as its first child fails, even when another
    child would have succeeded later."""
    sim = Simulator()
    seen = []

    def failer(ev):
        yield sim.timeout(5)
        ev.fail(RuntimeError("boom"))

    def waiter(ev):
        try:
            yield sim.any_of([ev, sim.timeout(50)])
            seen.append("ok")
        except RuntimeError as exc:
            seen.append(("failed", str(exc), sim.now))

    ev = sim.event()
    sim.process(failer(ev))
    sim.process(waiter(ev))
    sim.run()
    assert seen == [("failed", "boom", 5.0)]


def test_all_of_child_failure_propagates():
    sim = Simulator()
    seen = []

    def waiter():
        ev = sim.event()
        ev.fail(ValueError("bad"), delay=1)
        try:
            yield sim.all_of([sim.timeout(50), ev])
        except ValueError as exc:
            seen.append(str(exc))

    sim.process(waiter())
    sim.run()
    assert seen == ["bad"]


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")
    # The event must still be usable after the rejected fail().
    ev.succeed(42)
    sim.run()
    assert ev.value == 42
