"""Per-tenant QoS: token buckets, fair-share arbitration, re-routing.

PR 4's :class:`~repro.sim.faults.DegradeController` throttles prefetch
*globally*: pressure from one stream's retries withholds relaxed
readahead windows from every other stream, even when their regions of
the device are perfectly healthy.  The paper's Cross-OS design is the
opposite — prefetch resources are arbitrated *per application* (§4.4
per-inode state, §4.7 congestion classes) — so this module makes the
degradation machinery tenant-scoped and adds explicit budgets:

* every open file stream (keyed by inode id, the same key the device
  scheduler uses for sequential-stream detection) is tagged with a
  **tenant**;
* each tenant owns a deterministic **token bucket** (prefetch bytes per
  second), a share of the device's **in-flight prefetch slots**, an
  optional **latency SLO**, and its *own* ``DegradeController``;
* a **weighted-fair arbiter** re-leases a paused tenant's bucket rate
  and prefetch slots to the remaining healthy tenants, and hands them
  back when the tenant recovers (re-leasing is driven purely by
  controller transitions, so it is a deterministic function of the
  fault schedule);
* fabric-faulted requests **re-route** once to a modeled secondary path
  (see ``StorageDevice._submit_resilient``) before entering the backoff
  ladder;
* with the learned adaptive policy attached (``Kernel(adaptive=)``,
  :mod:`repro.crosslib.adaptive`), **SLO violations move weights**: a
  tenant missing its latency SLO earns a capped ``slo_boost``
  multiplier on its fair-share weight (decayed again by violation-free
  reads), so re-leasing favors the tenant that is actually hurting —
  without the policy, violations are counted only, and the share
  arithmetic is bit-identical to the static split.

Everything here is consulted through ``device.qos`` / ``kernel.qos``
``is not None`` guards — with no manager attached, no code in this
module runs and healthy simulations stay byte-identical (the same
contract the tracer, auditor, and fault engine follow).

Invariants the auditor (:mod:`repro.sim.audit`) checks when a manager
is attached:

* Σ per-tenant ``admitted_blocks`` ≡ the ``cross.prefetch_blocks``
  counter (every admitted prefetch block is attributed to exactly one
  tenant);
* token buckets never go negative;
* per-tenant in-flight prefetch counts return to zero at shutdown.

See ``docs/qos.md`` for the tenant model, the bucket math, and the
re-routing state machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.faults import DegradeController, DegradePolicy

__all__ = ["QosManager", "QosSpec", "TenantSpec", "TenantState",
           "TokenBucket"]

KB = 1 << 10
MB = 1 << 20

# Conservative OS-readahead window (blocks) for streams of a throttled
# tenant: 8 blocks = 32 KB, a quarter of the stock 128 KB window.
DEGRADED_RA_BLOCKS = 8


class TokenBucket:
    """Deterministic lazily-refilled token bucket (bytes).

    Refill is a pure function of elapsed simulated time — no background
    process, no wall clock — so runs stay bit-deterministic per seed:
    ``tokens = min(capacity, tokens + (now - stamp) * rate)``.

    The bucket can be *trimmed* but never overdrawn: :meth:`grant`
    returns how many bytes fit, and only subtracts what it granted, so
    ``tokens`` is never negative (an auditor invariant).
    """

    __slots__ = ("rate", "capacity", "tokens", "_stamp")

    def __init__(self, rate: float, capacity: float, now: float = 0.0):
        if rate < 0 or capacity <= 0:
            raise ValueError(
                f"bad bucket: rate={rate}, capacity={capacity}")
        self.rate = rate          # bytes per simulated µs
        self.capacity = capacity  # bytes
        self.tokens = capacity    # start full: cold tenants may burst
        self._stamp = now

    def refill(self, now: float) -> None:
        dt = now - self._stamp
        if dt > 0.0:
            tokens = self.tokens + dt * self.rate
            self.tokens = tokens if tokens < self.capacity \
                else self.capacity
            self._stamp = now

    def set_rate(self, rate: float, now: float) -> None:
        """Re-lease: refill at the old rate up to ``now``, then switch."""
        self.refill(now)
        self.rate = rate

    def grant(self, nbytes: float, now: float) -> float:
        """Admit up to ``nbytes``; returns the granted amount (≥ 0)."""
        self.refill(now)
        granted = nbytes if nbytes <= self.tokens else self.tokens
        if granted > 0.0:
            self.tokens -= granted
        return granted


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a name, a fair-share weight, an optional SLO."""

    name: str
    weight: float = 1.0
    slo_us: Optional[float] = None  # blocking-read latency SLO

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(
                f"tenant {self.name!r}: weight must be positive, "
                f"got {self.weight}")
        if self.slo_us is not None and self.slo_us <= 0:
            raise ValueError(
                f"tenant {self.name!r}: slo_us must be positive, "
                f"got {self.slo_us}")


@dataclass(frozen=True)
class QosSpec:
    """The QoS configuration one kernel runs under.

    ``rate_mb_per_s`` is the *total* prefetch byte budget shared by all
    tenants in weight proportion; ``prefetch_slots`` is the total
    in-flight prefetch slot pool (None = the device's own
    ``max_prefetch_in_flight``).  ``burst_us`` sizes each bucket's
    capacity: a tenant may burst its rate × this much time.
    """

    tenants: tuple[TenantSpec, ...] = ()
    rate_mb_per_s: float = 4096.0
    prefetch_slots: Optional[int] = None
    burst_us: float = 25_000.0

    @property
    def enabled(self) -> bool:
        return bool(self.tenants)

    @property
    def rate_bytes_per_us(self) -> float:
        # MB/s == 2^20 bytes per 10^6 µs.
        return self.rate_mb_per_s * MB / 1e6

    @classmethod
    def parse(cls, text: str, **kwargs) -> "QosSpec":
        """Parse a ``--tenants`` spec: ``name[:weight[:slo_us]],...``.

        Examples: ``"A,B"`` (equal weights), ``"A:2,B:1"``,
        ``"latency:1:2500,batch:3"``.
        """
        tenants = []
        seen = set()
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            fields = part.split(":")
            if len(fields) > 3:
                raise ValueError(
                    f"bad tenant spec {part!r}: expected "
                    f"name[:weight[:slo_us]]")
            name = fields[0].strip()
            if name in seen:
                raise ValueError(f"duplicate tenant {name!r}")
            seen.add(name)
            weight = float(fields[1]) if len(fields) > 1 else 1.0
            slo = float(fields[2]) if len(fields) > 2 else None
            tenants.append(TenantSpec(name, weight, slo))
        if not tenants:
            raise ValueError(f"no tenants in spec {text!r}")
        return cls(tenants=tuple(tenants), **kwargs)

    def describe(self) -> str:
        parts = []
        for t in self.tenants:
            s = f"{t.name}:{t.weight:g}"
            if t.slo_us is not None:
                s += f":{t.slo_us:g}us"
            parts.append(s)
        return (f"{','.join(parts)} (rate={self.rate_mb_per_s:g} MB/s, "
                f"slots={self.prefetch_slots or 'device'})")


class TenantState:
    """Mutable runtime state of one tenant inside a :class:`QosManager`."""

    __slots__ = ("spec", "bucket", "controller", "slots", "inflight",
                 "admitted_blocks", "trimmed_blocks", "reroutes",
                 "slo_violations", "faults", "streams", "slo_boost",
                 "slo_clean")

    def __init__(self, spec: TenantSpec, bucket: TokenBucket,
                 controller: DegradeController, slots: int):
        self.spec = spec
        self.bucket = bucket
        self.controller = controller
        self.slots = slots            # effective in-flight prefetch cap
        self.inflight = 0             # prefetch requests on the device
        self.admitted_blocks = 0      # bucket-admitted Cross-OS blocks
        self.trimmed_blocks = 0       # blocks the bucket withheld
        self.reroutes = 0             # secondary-path failovers
        self.slo_violations = 0       # blocking reads past slo_us
        self.faults = 0               # fault events attributed here
        self.streams: set[int] = set()
        # SLO-driven weight multiplier (adaptive policy only): stays at
        # exactly 1.0 without it, so the fair-share arithmetic below is
        # bit-identical to the static weight split.
        self.slo_boost = 1.0
        self.slo_clean = 0            # violation-free reads since bump

    @property
    def name(self) -> str:
        return self.spec.name

    def snapshot(self, now: float) -> dict:
        return {
            "weight": self.spec.weight,
            "level": self.controller.level,
            "state": DegradeController.LEVEL_NAMES[self.controller.level],
            "transitions": self.controller.transitions,
            "rate_bytes_per_us": self.bucket.rate,
            "tokens": self.bucket.tokens,
            "slots": self.slots,
            "slo_boost": self.slo_boost,
            "inflight": self.inflight,
            "admitted_blocks": self.admitted_blocks,
            "trimmed_blocks": self.trimmed_blocks,
            "reroutes": self.reroutes,
            "slo_violations": self.slo_violations,
            "faults": self.faults,
            "streams": len(self.streams),
        }


class QosManager:
    """Per-kernel tenant registry, fair-share arbiter, and re-leaser.

    Public entry points (everything the rest of the stack calls):

    * :meth:`register_stream` — tag a stream (inode id) with a tenant
      (round-robin over the spec's tenants when none is named);
    * :meth:`level_of` / :meth:`window_cap` — per-tenant degradation
      level, consulted by Cross-OS admission, CROSS-LIB planning and
      workers, and the VFS readahead clamp *instead of* the global
      controller;
    * :meth:`trim_runs` — token-bucket admission for a Cross-OS
      prefetch submission (block-granular);
    * :meth:`can_dispatch` / :meth:`note_dispatch` /
      :meth:`note_complete` — per-tenant in-flight slot gate used by
      the device's prefetch picker;
    * :meth:`note_fault` / :meth:`note_ok` / :meth:`note_reroute` /
      :meth:`note_latency` — completion feeds from the device.
    """

    def __init__(self, sim, spec: QosSpec,
                 policy: Optional[DegradePolicy] = None,
                 registry=None):
        if not spec.enabled:
            raise ValueError("QosSpec has no tenants")
        self.sim = sim
        self.spec = spec
        self.registry = registry
        self.device = None
        # Learned adaptive policy (set by the kernel when both are
        # attached).  While present, SLO violations *move* tenant
        # weights via slo_boost instead of only being counted.
        self.adaptive = None
        self._policy = policy or DegradePolicy()
        self._stream_tenant: dict[int, TenantState] = {}
        self._rr = 0
        total_w = sum(t.weight for t in spec.tenants)
        rate = spec.rate_bytes_per_us
        slots = spec.prefetch_slots or 4
        self._total_slots = slots
        self.tenants: dict[str, TenantState] = {}
        for t in spec.tenants:
            share = t.weight / total_w
            bucket = TokenBucket(rate * share,
                                 max(1.0, rate * share * spec.burst_us))
            controller = DegradeController(
                sim, self._policy,
                on_transition=self._make_transition_hook(t.name))
            self.tenants[t.name] = TenantState(
                t, bucket, controller, max(1, round(slots * share)))

    # -- wiring ------------------------------------------------------------

    def attach_device(self, device) -> None:
        """Called by ``StorageDevice.set_qos``; adopts the device's
        prefetch slot pool when the spec did not fix one."""
        self.device = device
        if self.spec.prefetch_slots is None:
            self._total_slots = device.max_prefetch_in_flight
            self._rebalance(self.sim.now)

    def _make_transition_hook(self, name: str):
        def on_transition(level: int, now: float) -> None:
            # Re-lease budgets on every state change, then export.
            self._rebalance(now)
            registry = self.registry
            if registry is not None:
                registry.count("qos.degrade_transitions")
                observer = registry.observer
                if observer is not None:
                    observer.instant(
                        "qos", "tenant_degrade", tenant=name,
                        level=level,
                        state=DegradeController.LEVEL_NAMES[level])
        return on_transition

    # -- registration ------------------------------------------------------

    def register_stream(self, stream: int,
                        tenant: Optional[str] = None) -> TenantState:
        """Tag ``stream`` (an inode id) with a tenant.

        Unnamed registrations round-robin across the spec's tenants in
        declaration order — deterministic because stream creation order
        is deterministic.  Re-registering moves the stream.
        """
        if tenant is None:
            names = list(self.tenants)
            tenant = names[self._rr % len(names)]
            self._rr += 1
        state = self.tenants.get(tenant)
        if state is None:
            raise KeyError(f"unknown tenant {tenant!r}; "
                           f"spec has {', '.join(self.tenants)}")
        previous = self._stream_tenant.get(stream)
        if previous is not None:
            previous.streams.discard(stream)
        self._stream_tenant[stream] = state
        state.streams.add(stream)
        return state

    def _tenant_or_register(self, stream: int) -> TenantState:
        state = self._stream_tenant.get(stream)
        if state is None:
            state = self.register_stream(stream)
        return state

    # -- degradation (per-tenant) ------------------------------------------

    def level_of(self, stream: int, now: float) -> int:
        """The stream's tenant's degradation level (0 if unregistered)."""
        state = self._stream_tenant.get(stream)
        if state is None:
            return 0
        return state.controller.current_level(now)

    def window_cap(self, stream: int, now: float) -> Optional[int]:
        """OS-readahead window clamp (blocks) while the stream's tenant
        is degraded; None leaves the stock window untouched."""
        if self.level_of(stream, now) >= 1:
            return DEGRADED_RA_BLOCKS
        return None

    def note_fault(self, stream: int, now: float,
                   weight: float = 1.0) -> None:
        state = self._tenant_or_register(stream)
        state.faults += 1
        state.controller.note_fault(now, weight)

    def note_ok(self, stream: int, now: float) -> None:
        state = self._stream_tenant.get(stream)
        if state is not None:
            state.controller.note_ok(now)

    def note_reroute(self, stream: int) -> None:
        state = self._tenant_or_register(stream)
        state.reroutes += 1
        if self.registry is not None:
            self.registry.count("qos.reroutes")

    def note_latency(self, stream: int, latency_us: float,
                     now: float) -> None:
        """SLO accounting for one completed blocking read.

        Without the adaptive policy, violations are counted only (the
        pre-adaptive behavior, byte-identical).  With it, a violation
        multiplies the tenant's ``slo_boost`` (capped) and re-leases
        budgets immediately, so an SLO-missing tenant takes a larger
        share of rate and prefetch slots; a run of violation-free reads
        decays the boost back toward 1.0, re-leasing again on the way
        down.  Both directions are pure functions of the completion
        stream — deterministic per seed.
        """
        state = self._stream_tenant.get(stream)
        if state is None or state.spec.slo_us is None:
            return
        if latency_us > state.spec.slo_us:
            state.slo_violations += 1
            if self.registry is not None:
                self.registry.count("qos.slo_violations")
            adaptive = self.adaptive
            if adaptive is not None:
                spec = adaptive.spec
                state.slo_clean = 0
                boosted = min(spec.slo_boost_max,
                              state.slo_boost * spec.slo_boost_step)
                if boosted != state.slo_boost:
                    state.slo_boost = boosted
                    if self.registry is not None:
                        self.registry.count("qos.slo_boosts")
                    self._rebalance(now)
        elif self.adaptive is not None and state.slo_boost > 1.0:
            state.slo_clean += 1
            if state.slo_clean >= self.adaptive.spec.slo_clean_reads:
                state.slo_clean = 0
                decayed = state.slo_boost                     * self.adaptive.spec.slo_boost_decay
                state.slo_boost = decayed if decayed > 1.0 else 1.0
                self._rebalance(now)

    # -- fair-share re-leasing ---------------------------------------------

    def _rebalance(self, now: float) -> None:
        """Weighted-fair re-lease of rate and slots.

        Paused tenants (level 2) are excluded from the share: their
        bucket rate drops to zero and their prefetch slots move to the
        healthy tenants, weight-proportionally.  Recovery transitions
        run the same computation in reverse.  With every tenant healthy
        this reproduces the static weight split exactly.
        """
        active = [t for t in self.tenants.values()
                  if t.controller.level < 2]
        if not active:          # everyone paused: keep base shares
            active = list(self.tenants.values())
        # Effective weight = static weight x SLO boost.  The boost is
        # exactly 1.0 unless the adaptive policy moved it, and
        # weight * 1.0 == weight bit-for-bit, so non-adaptive runs
        # reproduce the static split exactly.
        total_w = sum(t.spec.weight * t.slo_boost for t in active)
        rate = self.spec.rate_bytes_per_us
        for t in self.tenants.values():
            if t not in active:
                t.bucket.set_rate(0.0, now)
                t.slots = 0
                continue
            share = t.spec.weight * t.slo_boost / total_w
            t.bucket.set_rate(rate * share, now)
            t.slots = max(1, round(self._total_slots * share))

    # -- admission (Cross-OS submission path) ------------------------------

    def trim_runs(self, stream: int, runs: list, block_size: int,
                  now: float) -> list:
        """Token-bucket admission for one ``readahead_info`` submission.

        Trims ``runs`` (block runs) to the tenant's remaining byte
        budget at block granularity and charges the bucket for exactly
        what was admitted.  The admitted total is attributed to the
        tenant — Σ per-tenant ``admitted_blocks`` must equal the
        ``cross.prefetch_blocks`` counter (auditor invariant).
        """
        state = self._tenant_or_register(stream)
        requested = sum(n for _s, n in runs)
        granted = state.bucket.grant(requested * block_size, now)
        admit = int(granted) // block_size
        if admit >= requested:
            admitted = runs
        elif admit <= 0:
            # Nothing fit: return the unused grant remainder.
            state.bucket.tokens += granted
            admitted = []
        else:
            # Partial: keep whole leading runs, cut the boundary run.
            state.bucket.tokens += granted - admit * block_size
            admitted = []
            left = admit
            for run_start, run_len in runs:
                if left <= 0:
                    break
                n = run_len if run_len <= left else left
                admitted.append((run_start, n))
                left -= n
        taken = sum(n for _s, n in admitted)
        state.admitted_blocks += taken
        state.trimmed_blocks += requested - taken
        if self.registry is not None and requested > taken:
            self.registry.count("qos.trimmed_blocks", requested - taken)
        return admitted

    # -- dispatch gate (device prefetch picker) ----------------------------

    def can_dispatch(self, stream: int, now: float) -> bool:
        """May a prefetch request of this stream enter the device now?"""
        state = self._stream_tenant.get(stream)
        if state is None:
            return True
        if state.controller.current_level(now) >= 2:
            return False
        return state.inflight < state.slots

    def note_dispatch(self, stream: int) -> None:
        state = self._stream_tenant.get(stream)
        if state is not None:
            state.inflight += 1

    def note_complete(self, stream: int) -> None:
        state = self._stream_tenant.get(stream)
        if state is not None:
            state.inflight -= 1

    # -- reporting ---------------------------------------------------------

    @property
    def transitions(self) -> int:
        return sum(t.controller.transitions
                   for t in self.tenants.values())

    def snapshot(self) -> dict:
        """Per-tenant counters for reports / ``extra["qos"]``."""
        now = self.sim.now
        return {name: state.snapshot(now)
                for name, state in self.tenants.items()}
