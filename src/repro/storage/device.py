"""Base storage device model and I/O request plumbing."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.sim.engine import Event, Simulator
from repro.sim.faults import DegradeController, DeviceTimeout, FabricError
from repro.sim.stats import StatsRegistry
from repro.storage.filesystem import EXT4, FilesystemProfile

__all__ = ["BLOCKING", "PREFETCH", "DeviceStats", "IORequest", "StorageDevice"]


def _sink(_ev: Event) -> None:
    """No-op callback pre-parked on resilient request events.

    A failed event with no callbacks at processing time crashes the run
    loop ("failed event nobody waited on"); fault-injected failures are
    expected, so every outer event carries this sink from birth.
    """

# Priority classes.  Blocking I/O (read()/write() waiters) always beats
# prefetch I/O; prefetch dispatch is additionally gated by congestion
# control so queued prefetches cannot delay demand reads (§4.7).
BLOCKING = 0
PREFETCH = 1

READ = "read"
WRITE = "write"


class IORequest:
    """One device request.

    ``stream`` identifies a sequential stream (we use the inode id) so
    the device can waive the seek penalty when a request continues where
    the stream's previous request ended.  ``path`` selects the modeled
    fabric path: 0 = primary (fault-injectable), 1 = secondary failover
    (fault-free but slower; see ``FabricSpec.secondary_latency_mult``).
    Hand-rolled (not a dataclass): one is allocated per device I/O.
    """

    __slots__ = ("kind", "offset", "nbytes", "priority", "stream",
                 "submitted_at", "done", "queue_wait", "sequential",
                 "path")

    def __init__(self, kind: str, offset: int, nbytes: int,
                 priority: int = BLOCKING, stream: int = 0,
                 submitted_at: float = 0.0,
                 done: Optional[Event] = None,
                 path: int = 0):
        if nbytes <= 0:
            raise ValueError(f"request size must be positive: {nbytes}")
        if kind not in (READ, WRITE):
            raise ValueError(f"bad request kind: {kind}")
        self.kind = kind
        self.offset = offset
        self.nbytes = nbytes
        self.priority = priority
        self.stream = stream
        self.submitted_at = submitted_at
        self.done = done
        self.path = path
        # Filled in by the scheduler for telemetry/span export.
        self.queue_wait = 0.0
        self.sequential = False

    def __repr__(self) -> str:
        return (f"IORequest({self.kind!r}, offset={self.offset}, "
                f"nbytes={self.nbytes}, priority={self.priority}, "
                f"stream={self.stream})")


@dataclass
class DeviceStats:
    """Aggregate device telemetry for reports.

    Per-request service time is accounted in three components so they
    can be reasoned about separately: ``access_time`` (seek/flash access
    latency, overlappable across the queue), ``channel_wait`` (time a
    request's transfer waited for the serialized per-direction channel),
    and ``transfer_time`` (actual channel occupancy).  Summing whole
    request latencies would double-count the overlapped portions and
    report utilizations above 100%; per-direction ``transfer_time`` is
    the only component that is serialized, so it alone bounds channel
    utilization.
    """

    reads: int = 0
    writes: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    prefetch_reads: int = 0
    prefetch_bytes: int = 0
    sequential_hits: int = 0
    access_time: float = 0.0
    channel_wait: float = 0.0
    transfer_time: float = 0.0
    read_transfer_time: float = 0.0
    write_transfer_time: float = 0.0
    queue_wait: float = 0.0
    # Fault/resilience telemetry (all zero on a healthy device).  The
    # audit's byte-conservation equation under faults is:
    #   consumed = read_bytes + failed_read_bytes + aborted_read_bytes
    #   issued   = fill-issued bytes + retried_read_bytes
    # so every failed attempt and every watchdog-cancelled queued
    # request is accounted exactly once.
    faults_injected: int = 0
    read_failures: int = 0
    write_failures: int = 0
    failed_read_bytes: int = 0
    failed_write_bytes: int = 0
    retries: int = 0
    retried_read_bytes: int = 0
    retried_write_bytes: int = 0
    retry_exhausted: int = 0
    timeouts: int = 0
    aborted_requests: int = 0
    aborted_read_bytes: int = 0
    aborted_write_bytes: int = 0
    stall_time: float = 0.0
    # Fabric failovers onto the secondary path (QoS manager attached).
    # Deliberately not part of fault_summary(): rerouted bytes are
    # already counted as retried bytes for conservation.
    reroutes: int = 0

    @property
    def busy_time(self) -> float:
        """Total per-request service time (components may overlap across
        concurrent requests — do not divide by wall clock)."""
        return self.access_time + self.channel_wait + self.transfer_time

    def utilization(self, elapsed: float) -> float:
        """Occupancy of the busier transfer channel over ``elapsed`` µs.

        Transfers are serialized per direction, so each direction's total
        is ≤ elapsed once the device is quiescent; the audit asserts this
        never exceeds 1.0.
        """
        if elapsed <= 0:
            return 0.0
        return max(self.read_transfer_time,
                   self.write_transfer_time) / elapsed

    def record(self, req: IORequest, waited: float, access: float,
               channel_wait: float, transfer: float,
               sequential: bool) -> None:
        if req.kind == READ:
            self.reads += 1
            self.read_bytes += req.nbytes
            self.read_transfer_time += transfer
            if req.priority == PREFETCH:
                self.prefetch_reads += 1
                self.prefetch_bytes += req.nbytes
        else:
            self.writes += 1
            self.write_bytes += req.nbytes
            self.write_transfer_time += transfer
        if sequential:
            self.sequential_hits += 1
        self.access_time += access
        self.channel_wait += channel_wait
        self.transfer_time += transfer
        self.queue_wait += waited

    def fault_summary(self) -> dict:
        """Compact dict of the fault/resilience counters for reports."""
        return {
            "faults_injected": self.faults_injected,
            "read_failures": self.read_failures,
            "write_failures": self.write_failures,
            "retries": self.retries,
            "retry_exhausted": self.retry_exhausted,
            "timeouts": self.timeouts,
            "aborted_requests": self.aborted_requests,
            "stall_time_us": round(self.stall_time, 1),
        }


class StorageDevice:
    """Queue-depth-limited device with a serialized transfer channel.

    Subclasses provide the parameter set; this class implements the
    scheduler: a fixed number of in-flight slots, strict priority of
    blocking over prefetch requests, and congestion control that holds
    prefetch requests back while blocking requests are queued.

    With a :class:`~repro.sim.faults.FaultEngine` attached (see
    :meth:`set_fault_engine`) every submission additionally runs through
    the resilient path: capped exponential-backoff retry, a hard
    deadline for prefetch requests, and a
    :class:`~repro.sim.faults.DegradeController` throttling prefetch
    dispatch while fault pressure is high.  Without an engine none of
    that code executes — the healthy event sequence is byte-identical.
    """

    is_remote = False

    def __init__(self, sim: Simulator, *,
                 name: str,
                 queue_depth: int,
                 read_bandwidth: float,   # bytes / µs
                 write_bandwidth: float,  # bytes / µs
                 access_latency: float,   # µs, random access
                 seq_latency: float,      # µs, sequential continuation
                 fs: FilesystemProfile = EXT4,
                 stats_registry: Optional[StatsRegistry] = None,
                 prefetch_hold: float = 0.0,
                 random_channel_overhead: float = 12.0):
        if queue_depth <= 0:
            raise ValueError(f"queue depth must be positive: {queue_depth}")
        self.sim = sim
        self.name = name
        self.queue_depth = queue_depth
        self.read_bandwidth = read_bandwidth * fs.read_bandwidth_factor
        self.write_bandwidth = write_bandwidth * fs.write_bandwidth_factor
        self.access_latency = access_latency * fs.latency_factor
        self.seq_latency = seq_latency * fs.latency_factor
        self.fs = fs
        self.stats = DeviceStats()
        self.registry = stats_registry
        self.prefetch_hold = prefetch_hold
        # Non-sequential requests occupy the transfer channel for this
        # extra time (controller/channel setup).  It is why random 16 KB
        # reads cannot reach sequential bandwidth even at full queue
        # depth — the headroom prefetch batching exploits.
        self.random_channel_overhead = \
            random_channel_overhead * fs.latency_factor
        self._in_flight = 0
        self._in_flight_prefetch = 0
        # Congestion control (§4.7): at most this many prefetch requests
        # occupy the device at once, so a demand read's transfer never
        # queues behind a deep prefetch backlog.
        self.max_prefetch_in_flight = max(2, queue_depth // 2)
        self._queue_blocking: deque[IORequest] = deque()
        self._queue_prefetch: deque[IORequest] = deque()
        # Transfer channels are serialized per direction: the time at
        # which the read (resp. write) channel next becomes free.
        # Bandwidth is strictly conserved; prefetch is kept from
        # monopolising the read channel by the backlog bound below.
        self._read_free = 0.0
        self._write_free = 0.0
        # A prefetch transfer is only dispatched while the read channel
        # backlog is shorter than this (µs) — so a demand read never
        # queues behind more than ~a chunk of prefetch data, while a
        # saturated prefetch pipeline still keeps the channel busy.
        self.prefetch_backlog_us = 1500.0
        # stream id -> byte offset where the previous request ended
        self._stream_pos: dict[int, int] = {}
        # Fault injection (None on a healthy device; see set_fault_engine).
        self.faults = None
        self.degrade: Optional[DegradeController] = None
        self._stall_pending = False
        self._resume_pending = False
        # Multi-tenant QoS (None unless set_qos attaches a manager) and
        # stream placement for region-scoped fault scenarios.  Streams
        # default to region 0; region_of works with or without QoS so
        # the global-clamp comparison rows can still place files.
        self.qos = None
        # Learned adaptive prefetch policy (None unless set_adaptive
        # attaches one; see repro.crosslib.adaptive).  Pure bookkeeping
        # target for retry/fault notifications.
        self.adaptive = None
        self.region_map: dict[int, int] = {}
        # Persistence ledger for crash-consistency scenarios (None
        # unless the kernel attaches one; see set_durable).  Pure
        # bookkeeping — never adds events or I/O.
        self.durable = None
        # Byte counters hoisted out of _start: the f-string + registry
        # lookup per request is measurable at tens of thousands of I/Os.
        if stats_registry is not None:
            self._c_read_bytes = stats_registry.counter("device.read_bytes")
            self._c_write_bytes = stats_registry.counter("device.write_bytes")
        else:
            self._c_read_bytes = self._c_write_bytes = None

    # -- public API --------------------------------------------------------

    def set_fault_engine(self, engine) -> None:
        """Attach a fault engine; all submissions become resilient.

        Also wires the degradation controller, with transitions exported
        as a counter + span instant so recovery is observable.
        """
        self.faults = engine
        engine.attach(self)
        on_transition = None
        if self.registry is not None:
            counter = self.registry.counter("device.degrade_transitions")
            registry = self.registry

            def on_transition(level: int, now: float,
                              _c=counter, _r=registry) -> None:
                _c.value += 1
                observer = _r.observer
                if observer is not None:
                    observer.instant(
                        "storage", "degrade", device=self.name,
                        level=level,
                        state=DegradeController.LEVEL_NAMES[level])

        self.degrade = DegradeController(self.sim, engine.spec.degrade,
                                         on_transition)

    def set_qos(self, manager) -> None:
        """Attach a :class:`~repro.sim.qos.QosManager`.

        Prefetch dispatch then arbitrates per tenant (token buckets +
        in-flight slot shares) instead of through the global degrade
        clamp, and fabric-faulted requests fail over once to the
        secondary path.  Without a manager none of that code runs.
        """
        self.qos = manager
        manager.attach_device(self)

    def set_adaptive(self, policy) -> None:
        """Attach an :class:`~repro.crosslib.adaptive.AdaptivePolicy`.

        The device then feeds it retry attempts, failed completions and
        prefetch-deadline expiries so fault pressure reaches the
        policy's perceptron features.  Without a policy none of that
        code runs (healthy runs are byte-identical).
        """
        self.adaptive = policy
        policy.attach_device(self)

    def set_durable(self, state) -> None:
        """Attach a :class:`~repro.storage.durable.DurableState` ledger
        (durable-damage fault scenarios).  The VFS then reports settled
        writeback via ``durable.note_write`` and ``fsync`` issues flush
        barriers through :meth:`flush_stream`."""
        self.durable = state

    def flush_stream(self, stream: int) -> None:
        """Flush barrier for one stream: every volatile byte the ledger
        holds for it becomes persisted and acknowledged-durable.  No-op
        without a ledger (healthy runs are untouched)."""
        if self.durable is not None:
            self.durable.flush_stream(stream)

    def place_stream(self, stream: int, region: int) -> None:
        """Pin a stream (inode id) to a device region for region-scoped
        fault scenarios (``FaultSpec.region``)."""
        self.region_map[stream] = region

    def region_of(self, stream: int) -> int:
        return self.region_map.get(stream, 0)

    def submit(self, kind: str, offset: int, nbytes: int, *,
               priority: int = BLOCKING, stream: int = 0) -> Event:
        """Queue a request; the returned event fires at completion."""
        if self.faults is not None:
            return self._submit_resilient(kind, offset, nbytes,
                                          priority, stream)
        req = IORequest(kind=kind, offset=offset, nbytes=nbytes,
                        priority=priority, stream=stream,
                        submitted_at=self.sim.now,
                        done=Event(self.sim))
        if priority == BLOCKING:
            self._queue_blocking.append(req)
        else:
            self._queue_prefetch.append(req)
        self._dispatch()
        return req.done

    def _submit_resilient(self, kind: str, offset: int, nbytes: int,
                          priority: int, stream: int) -> Event:
        """Submit under fault injection: retry with capped exponential
        backoff, and (for prefetch) a hard deadline after which the
        request is abandoned so readers behind it can fall back to
        blocking I/O instead of wedging.

        The returned *outer* event fires once — on first success, on
        retry exhaustion, or at the prefetch deadline — regardless of
        how many attempts ran underneath.
        """
        sim = self.sim
        retry = self.faults.spec.retry
        max_retries = (retry.blocking_retries if priority == BLOCKING
                       else retry.prefetch_retries)
        st = self.stats
        outer = Event(sim)
        outer.add_callback(_sink)
        # attempt: completed tries so far; settled: outer already fired;
        # req: the currently outstanding inner attempt (for the deadline
        # watchdog to cancel if it is still queued); path: fabric path
        # for subsequent attempts; extra: retry-budget credit granted by
        # a secondary-path failover (the failover retry is free).
        state = {"attempt": 0, "settled": False, "req": None,
                 "path": 0, "extra": 0}

        def start_attempt(_ev: Optional[Event] = None) -> None:
            if state["settled"]:
                return
            n = state["attempt"]
            req = IORequest(kind=kind, offset=offset, nbytes=nbytes,
                            priority=priority, stream=stream,
                            submitted_at=sim.now, done=Event(sim),
                            path=state["path"])
            state["req"] = req
            if n > 0:
                # Counted at enqueue (not at failure) so the issued-side
                # byte conservation holds even if the deadline watchdog
                # settles the request mid-backoff.
                st.retries += 1
                if kind == READ:
                    st.retried_read_bytes += nbytes
                else:
                    st.retried_write_bytes += nbytes
                if self.adaptive is not None:
                    self.adaptive.note_retry(stream, sim.now)
            req.done.add_callback(on_done)
            if priority == BLOCKING:
                self._queue_blocking.append(req)
            else:
                self._queue_prefetch.append(req)
            self._dispatch()

        def on_done(ev: Event) -> None:
            if state["settled"]:
                return   # completed after the deadline fired; drop
            if ev._ok:
                state["settled"] = True
                outer.succeed(ev._value)
                return
            if (self.qos is not None and state["path"] == 0
                    and isinstance(ev._value, FabricError)):
                # Fabric failover: retry immediately on the modeled
                # secondary path (no backoff, no retry-budget charge —
                # hence the "extra" credit).  The attempt counter still
                # advances so start_attempt books the retried bytes and
                # the conservation audit balances.
                state["path"] = 1
                state["extra"] = 1
                state["attempt"] += 1
                st.reroutes += 1
                self.qos.note_reroute(stream)
                start_attempt()
                return
            state["attempt"] += 1
            n = state["attempt"]
            if n > max_retries + state["extra"]:
                state["settled"] = True
                st.retry_exhausted += 1
                outer.fail(ev._value)
                return
            backoff = min(retry.max_backoff_us,
                          retry.base_backoff_us
                          * retry.backoff_multiplier ** (n - 1))
            sim.timeout(backoff).add_callback(start_attempt)

        if priority == PREFETCH:
            def deadline(_ev: Event) -> None:
                if state["settled"]:
                    return
                state["settled"] = True
                st.timeouts += 1
                self.faults.stats.timeouts += 1
                req = state["req"]
                try:
                    # Still queued: cancel it.  (In flight or mid-backoff
                    # the attempt's own accounting already balances.)
                    self._queue_prefetch.remove(req)
                except ValueError:
                    pass
                else:
                    st.aborted_requests += 1
                    if kind == READ:
                        st.aborted_read_bytes += nbytes
                    else:
                        st.aborted_write_bytes += nbytes
                if self.degrade is not None:
                    self.degrade.note_fault(sim.now, weight=2.0)
                if self.qos is not None:
                    self.qos.note_fault(stream, sim.now, weight=2.0)
                if self.adaptive is not None:
                    self.adaptive.note_fault(stream, sim.now,
                                             weight=2.0)
                outer.fail(DeviceTimeout(
                    f"prefetch {kind} offset={offset} nbytes={nbytes} "
                    f"missed {retry.prefetch_timeout_us:g}us deadline"))

            sim.timeout(retry.prefetch_timeout_us).add_callback(deadline)

        start_attempt()
        return outer

    def read(self, offset: int, nbytes: int, *, priority: int = BLOCKING,
             stream: int = 0) -> Event:
        return self.submit(READ, offset, nbytes, priority=priority,
                           stream=stream)

    def write(self, offset: int, nbytes: int, *, priority: int = BLOCKING,
              stream: int = 0) -> Event:
        return self.submit(WRITE, offset, nbytes, priority=priority,
                           stream=stream)

    def forget_stream(self, stream: int) -> None:
        self._stream_pos.pop(stream, None)
        if self.durable is not None:
            # Unlinked file: its durability obligations end with it.
            self.durable.forget_stream(stream)

    # -- scheduling --------------------------------------------------------

    def _dispatch(self) -> None:
        if self.faults is not None:
            until = self.faults.stall_until(self.sim.now)
            if until > self.sim.now:
                # Queue stall window: dispatch nothing until it ends.
                if not self._stall_pending:
                    self._stall_pending = True
                    self.stats.stall_time += until - self.sim.now
                    self.sim.timeout(until - self.sim.now) \
                        .add_callback(self._unstall)
                return
        while self._in_flight < self.queue_depth:
            req = self._pick()
            if req is None:
                return
            self._start(req)

    def _unstall(self, _ev: Event) -> None:
        self._stall_pending = False
        self._dispatch()

    def _resume_poll(self, _ev: Event) -> None:
        self._resume_pending = False
        self._dispatch()

    def _pick(self) -> Optional[IORequest]:
        if self._queue_blocking:
            return self._queue_blocking.popleft()
        if not self._queue_prefetch:
            return None
        max_prefetch = self.max_prefetch_in_flight
        if self.qos is not None:
            return self._pick_prefetch_qos(max_prefetch)
        if self.degrade is not None:
            level = self.degrade.current_level(self.sim.now)
            if level >= 2:
                # Paused: no new prefetch dispatch.  Nothing in flight
                # means no completion will re-trigger _dispatch, so poll
                # until the pressure drains (or the deadline watchdogs
                # reap the queue).
                if not self._resume_pending and not self._stall_pending:
                    self._resume_pending = True
                    self.sim.timeout(1000.0).add_callback(self._resume_poll)
                return None
            if level == 1:
                max_prefetch = max(1, max_prefetch // 2)
        # Congestion control: keep queue depth free for blocking I/O and
        # bound the prefetch backlog on the transfer channel.
        if self._in_flight >= max(1, self.queue_depth - 1):
            return None
        if self._in_flight_prefetch >= max_prefetch:
            return None
        head = self._queue_prefetch[0]
        if head.kind == READ and \
                self._read_free - self.sim.now > self.prefetch_backlog_us:
            return None
        return self._queue_prefetch.popleft()

    def _pick_prefetch_qos(self,
                           max_prefetch: int) -> Optional[IORequest]:
        """Tenant-aware prefetch pick: the per-tenant slot/level gate
        replaces the global degrade clamp, so one tenant's fault
        pressure never starves another's prefetch stream.

        Scans past head-of-line requests of inadmissible tenants (a
        paused tenant's queue entries wait in place for the deadline
        watchdogs; admissible co-tenants behind them dispatch).
        """
        now = self.sim.now
        if self._in_flight >= max(1, self.queue_depth - 1):
            return None
        if self._in_flight_prefetch >= max_prefetch:
            return None
        backlogged = \
            self._read_free - now > self.prefetch_backlog_us
        queue = self._queue_prefetch
        qos = self.qos
        for i, req in enumerate(queue):
            if not qos.can_dispatch(req.stream, now):
                continue
            if req.kind == READ and backlogged:
                # Channel backlog bound applies to every tenant; the
                # next completion will re-dispatch.
                return None
            if i == 0:
                return queue.popleft()
            del queue[i]
            return req
        # Nothing admissible.  With requests queued but zero in flight
        # no completion will re-trigger _dispatch — poll, as the global
        # paused branch does.
        if queue and self._in_flight == 0 and \
                not self._resume_pending and not self._stall_pending:
            self._resume_pending = True
            self.sim.timeout(1000.0).add_callback(self._resume_poll)
        return None

    def _start(self, req: IORequest) -> None:
        lat_mult = 1.0
        bw_factor = 1.0
        if self.faults is not None:
            # Consult the fault oracle BEFORE stream-position
            # bookkeeping: a failed dispatch must not advance the
            # sequential stream (the transfer never happened).
            exc, fail_latency, lat_mult, bw_factor = \
                self.faults.decide(req, self.sim.now)
            if exc is not None:
                self._start_failed(req, exc, fail_latency)
                return
        self._in_flight += 1
        if req.priority == PREFETCH:
            self._in_flight_prefetch += 1
            if self.qos is not None:
                self.qos.note_dispatch(req.stream)
        now = self.sim.now
        waited = now - req.submitted_at
        sequential = self._stream_pos.get(req.stream) == req.offset
        req.queue_wait = waited
        req.sequential = sequential
        self._stream_pos[req.stream] = req.offset + req.nbytes

        latency = self.seq_latency if sequential else self.access_latency
        if req.priority == PREFETCH and not sequential:
            # Prefetch requests are batched/merged more readily in the
            # kernel path; model as a small extra setup hold.
            latency += self.prefetch_hold
        if lat_mult != 1.0:
            latency *= lat_mult   # tail-latency storm / spike
        if req.path != 0 and self.faults is not None \
                and self.faults.spec.fabric is not None:
            # Secondary fabric path: fault-free but slower.
            latency *= self.faults.spec.fabric.secondary_latency_mult

        if req.kind == READ:
            bandwidth = self.read_bandwidth
        else:
            bandwidth = self.write_bandwidth
        if bw_factor != 1.0:
            bandwidth *= bw_factor   # degraded-bandwidth window
        transfer = req.nbytes / bandwidth
        if not sequential:
            transfer += self.random_channel_overhead

        access_done = now + latency
        if req.kind == READ:
            free = self._read_free
            start_xfer = access_done if access_done > free else free
            finish = start_xfer + transfer
            self._read_free = finish
        else:
            free = self._write_free
            start_xfer = access_done if access_done > free else free
            finish = start_xfer + transfer
            self._write_free = finish

        self.stats.record(req, waited, latency, start_xfer - access_done,
                          transfer, sequential)
        if self._c_read_bytes is not None:
            if req.kind == READ:
                self._c_read_bytes.value += req.nbytes
            else:
                self._c_write_bytes.value += req.nbytes

        done_event = self.sim.timeout(finish - now)
        done_event.add_callback(lambda _ev, r=req: self._complete(r))

    def _start_failed(self, req: IORequest, exc: Exception,
                      fail_latency: float) -> None:
        """Dispatch a doomed attempt: it occupies an in-flight slot
        until the error is reported, then fails its done event."""
        self._in_flight += 1
        if req.priority == PREFETCH:
            self._in_flight_prefetch += 1
            if self.qos is not None:
                self.qos.note_dispatch(req.stream)
        req.queue_wait = self.sim.now - req.submitted_at
        st = self.stats
        st.faults_injected += 1
        if req.kind == READ:
            st.read_failures += 1
            st.failed_read_bytes += req.nbytes
        else:
            st.write_failures += 1
            st.failed_write_bytes += req.nbytes
        self.sim.timeout(max(1.0, fail_latency)).add_callback(
            lambda _ev, r=req, e=exc: self._complete_failed(r, e))

    def _complete_failed(self, req: IORequest, exc: Exception) -> None:
        self._in_flight -= 1
        if req.priority == PREFETCH:
            self._in_flight_prefetch -= 1
            if self.qos is not None:
                self.qos.note_complete(req.stream)
        if self.degrade is not None:
            self.degrade.note_fault(self.sim.now)
        if self.qos is not None:
            self.qos.note_fault(req.stream, self.sim.now)
        if self.adaptive is not None:
            self.adaptive.note_fault(req.stream, self.sim.now)
        if self.registry is not None:
            observer = self.registry.observer
            if observer is not None:
                observer.complete(
                    "storage", req.kind, req.submitted_at,
                    device=self.name, stream=req.stream,
                    nbytes=req.nbytes,
                    prefetch=req.priority == PREFETCH,
                    error=exc.code,
                    queue_wait_us=round(req.queue_wait, 3))
        req.done.fail(exc)
        self._dispatch()

    def _complete(self, req: IORequest) -> None:
        self._in_flight -= 1
        if req.priority == PREFETCH:
            self._in_flight_prefetch -= 1
            if self.qos is not None:
                self.qos.note_complete(req.stream)
        if self.degrade is not None:
            self.degrade.note_ok(self.sim.now)
        if self.qos is not None:
            now = self.sim.now
            self.qos.note_ok(req.stream, now)
            if req.priority == BLOCKING and req.kind == READ:
                self.qos.note_latency(req.stream,
                                      now - req.submitted_at, now)
        if self.registry is not None:
            observer = self.registry.observer
            if observer is not None:
                observer.complete(
                    "storage", req.kind, req.submitted_at,
                    device=self.name, stream=req.stream,
                    nbytes=req.nbytes,
                    prefetch=req.priority == PREFETCH,
                    sequential=req.sequential,
                    queue_wait_us=round(req.queue_wait, 3))
        req.done.succeed(req)
        self._dispatch()
