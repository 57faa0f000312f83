"""What one round of a workload produces, and how it is timed."""

from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

MB = 1 << 20

# Short name -> the runtime the program builds for it.
APPROACHES = {"os": "OSonly", "cross": "CrossP[+predict+opt]"}

# Additive raw counters one approach accumulates over a round's phases.
RAW_KEYS = (
    "hit_pages", "miss_pages", "lock_wait_us", "device_reads",
    "read_bytes", "write_bytes", "queue_wait_us", "transfer_us",
    "elapsed_us", "app_bytes", "prefetch_pages", "evicted_pages",
    "faults_injected", "faults_retries", "degrade_transitions",
    "qos_admitted", "adaptive_issued", "adaptive_denied",
    "lsm_flushes", "lsm_compactions",
)

# Simulated per-layer metrics, reported once per approach with an
# ``os.`` / ``cross.`` prefix: name -> unit.
SIM_LAYER_UNITS = {
    "cache.hit_pages": "pages",
    "cache.miss_pages": "pages",
    "sync.lock_wait_us": "us",
    "device.reads": "count",
    "device.read_mb": "MB",
    "device.queue_wait_us": "us",
    "device.utilization": "ratio",
    "device.read_amplification": "ratio",
    "prefetch.pages": "pages",
    "cache.evicted_pages": "pages",
    "faults.injected": "count",
    "faults.retries": "count",
    "degrade.transitions": "count",
    "qos.admitted_blocks": "blocks",
    "adaptive.issued_plans": "count",
    "adaptive.denied_plans": "count",
    "lsm.flushes": "count",
    "lsm.compactions": "count",
}


@dataclass
class ApproachRun:
    """One approach's simulated results over one round."""

    ops: int = 0
    failed: int = 0
    duration_us: float = 0.0
    events: int = 0
    latencies_us: list = field(default_factory=list)
    raw: dict = field(default_factory=lambda: dict.fromkeys(RAW_KEYS, 0))

    def add_raw(self, values: dict) -> None:
        for key, value in values.items():
            self.raw[key] += value

    def layer_metrics(self) -> dict[str, float]:
        raw = self.raw
        return {
            "cache.hit_pages": raw["hit_pages"],
            "cache.miss_pages": raw["miss_pages"],
            "sync.lock_wait_us": raw["lock_wait_us"],
            "device.reads": raw["device_reads"],
            "device.read_mb": raw["read_bytes"] / MB,
            "device.queue_wait_us": raw["queue_wait_us"],
            "device.utilization": raw["transfer_us"] / raw["elapsed_us"]
            if raw["elapsed_us"] else 0.0,
            "device.read_amplification": raw["read_bytes"]
            / raw["app_bytes"] if raw["app_bytes"] else 0.0,
            "prefetch.pages": raw["prefetch_pages"],
            "cache.evicted_pages": raw["evicted_pages"],
            "faults.injected": raw["faults_injected"],
            "faults.retries": raw["faults_retries"],
            "degrade.transitions": raw["degrade_transitions"],
            "qos.admitted_blocks": raw["qos_admitted"],
            "adaptive.issued_plans": raw["adaptive_issued"],
            "adaptive.denied_plans": raw["adaptive_denied"],
            "lsm.flushes": raw["lsm_flushes"],
            "lsm.compactions": raw["lsm_compactions"],
        }

    def fingerprint(self) -> tuple:
        """Everything simulated; equal across rounds of one seed."""
        return (self.ops, self.failed, self.duration_us, self.events,
                tuple(self.latencies_us), tuple(sorted(self.raw.items())))


@dataclass
class RoundResult:
    runs: dict = field(default_factory=lambda: {
        short: ApproachRun() for short in APPROACHES})
    errors: list = field(default_factory=list)

    def fingerprint(self) -> tuple:
        return tuple((short, run.fingerprint())
                     for short, run in self.runs.items())


class PhaseClock:
    """Times the simulation phases of one round in host seconds.

    A phase starts where the benchmark hands its built inputs to a
    public entry point of the program and ends when that call returns.
    With a profiler, the profiler runs during the phases only.  With a
    ``ticker`` (reference.Ticker), reference slices run during the
    phases; their host seconds go to ``reference_s`` and are taken out
    of ``wall``.
    """

    def __init__(self, profiler=None, ticker=None):
        self.profiler = profiler
        self.ticker = ticker
        self.first_start: Optional[float] = None
        self.wall = 0.0
        self.reference_s: list[float] = []

    @contextmanager
    def phase(self) -> Iterator[None]:
        if self.first_start is None:
            self.first_start = time.perf_counter()
        with ExitStack() as stack:
            if self.ticker is not None:
                done = len(self.ticker.slices)
                stack.enter_context(self.ticker.active())
            if self.profiler is not None:
                self.profiler.enable()
            start = time.perf_counter()
            try:
                yield
            finally:
                self.wall += time.perf_counter() - start
                if self.profiler is not None:
                    self.profiler.disable()
                if self.ticker is not None:
                    # The first slice ran before ``start``.
                    slices = self.ticker.slices[done:]
                    self.wall -= sum(slices[1:])
                    self.reference_s += slices


def device_raw(device, elapsed_us: float) -> dict:
    """Raw counters of one device over ``elapsed_us`` simulated µs."""
    stats = device.stats
    return {
        "device_reads": stats.reads,
        "read_bytes": stats.read_bytes,
        "write_bytes": stats.write_bytes,
        "queue_wait_us": stats.queue_wait,
        "transfer_us": max(stats.read_transfer_time,
                           stats.write_transfer_time),
        "elapsed_us": elapsed_us,
        "faults_injected": stats.faults_injected,
        "faults_retries": stats.retries,
    }


def qos_admitted(manager) -> dict[str, int]:
    """Admitted prefetch blocks per tenant from a QoS snapshot."""
    if manager is None:
        return {}
    return {name: row["admitted_blocks"]
            for name, row in manager.snapshot().items()}


def kernel_raw(kernel) -> dict:
    """Raw counters of one single-host kernel after its phase."""
    registry = kernel.registry
    raw = device_raw(kernel.device, kernel.now)
    raw.update({
        "lock_wait_us": registry.total_lock_wait,
        "prefetch_pages": registry.get("prefetch.pages"),
        "evicted_pages": kernel.mem.reclaimed_pages
        + registry.get("cross.evicted_pages"),
        "degrade_transitions": registry.get("device.degrade_transitions")
        + registry.get("qos.degrade_transitions"),
        "qos_admitted": sum(qos_admitted(kernel.qos).values()),
        "adaptive_issued": registry.get("adaptive.issued_plans"),
        "adaptive_denied": registry.get("adaptive.denied_plans"),
    })
    return raw
