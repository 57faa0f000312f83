"""A fleet of hosts on one engine, contending for shared backends.

:func:`run_fleet` builds ``n_hosts`` :class:`~repro.cluster.host.Host`
machines inside **one** :class:`~repro.sim.engine.Simulator`, round-robins
them onto ``n_backends`` shared storage devices (remote NVMe-oF by
default, so fabric RTT and bandwidth are part of the contention), drives
every (host, tenant) pair with an open-loop
:class:`~repro.cluster.traffic.TrafficSpec` stream, and returns
fleet-level :class:`~repro.harness.metrics.ApproachMetrics` plus
per-host summaries and a determinism fingerprint.

Construction order matters and is pinned here:

1. the shared :class:`~repro.sim.audit.Auditor` (when auditing) —
   before any lock exists, so every primitive registers;
2. backend devices, each with its own registry;
3. multi-tenant QoS managers (when there is more than one tenant),
   attached to the backends — *before* any host, because CROSS-LIB
   snapshots ``device.qos`` when the runtime is built.  No fault engine
   is attached: :class:`FleetConfig` has no fault field, so a fleet
   always runs on healthy backends;
4. hosts (shared sim, per-host registry, disjoint inode namespaces),
   then their files and tenant-stream registrations.

The end-of-run audit is fleet-aware: the per-kernel equality check in
``Auditor.final_check`` assumes one device per auditor, so the fleet
instead runs ``check_now`` per host, leak checks per host, one *global*
byte-conservation equality across all backends, one global QoS
admission equality across all managers, and finally
``final_check(None)`` for the lock/process leak checks.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.host import Host, HostSpec
from repro.cluster.traffic import TrafficSpec, arrival_stream, \
    traffic_seed
from repro.harness.configs import MachineConfig
from repro.harness.metrics import ApproachMetrics
from repro.runtimes.base import HINT_NORMAL
from repro.sim.audit import Auditor
from repro.sim.engine import Simulator
from repro.sim.qos import QosManager, QosSpec, TenantSpec

__all__ = ["FleetConfig", "run_fleet"]

MB = 1 << 20


def _default_machine() -> MachineConfig:
    return MachineConfig.remote_nvmeof()


@dataclass
class FleetConfig:
    """One fleet run: topology × approach × traffic."""

    n_hosts: int = 2
    n_backends: int = 1
    n_tenants: int = 1
    approach: str = "OSonly"
    machine: MachineConfig = field(default_factory=_default_machine)
    memory_bytes: Optional[int] = None     # per host; None = machine's
    file_bytes: int = 8 * MB               # per (host, tenant) dataset
    seed: int = 42
    audit: bool = False
    # Total prefetch budget per backend when n_tenants > 1 (QoS is
    # attached only then; a single tenant needs no arbitration and a
    # no-manager run keeps the byte-identical-default contract).
    qos_rate_mb_per_s: float = 4096.0
    traffic: TrafficSpec = field(default_factory=TrafficSpec)

    def __post_init__(self):
        if self.n_hosts <= 0 or self.n_backends <= 0 \
                or self.n_tenants <= 0:
            raise ValueError(
                f"fleet needs positive counts: hosts={self.n_hosts}, "
                f"backends={self.n_backends}, tenants={self.n_tenants}")

    def describe(self) -> str:
        return (f"{self.n_hosts}h x {self.n_tenants}t "
                f"/{self.n_backends}b [{self.approach}]")


def _tenant_names(n: int) -> List[str]:
    return [f"t{i}" for i in range(n)]


def _request_proc(host: Host, handle, plan, io_bytes: int,
                  refs: dict):
    """One open-loop request: issued at its arrival instant regardless
    of what else is in flight; latency = completion − arrival."""
    sim = host.sim
    t_arrive = sim.now
    kind, idx, count = plan
    nbytes = hits = misses = 0
    for i in range(count):
        result = yield from host.runtime.pread(
            handle, (idx + i) * io_bytes, io_bytes)
        nbytes += result.nbytes
        hits += result.hit_pages
        misses += result.miss_pages
    host.note_request(nbytes, sim.now - t_arrive,
                      hit_pages=hits, miss_pages=misses)
    refs["outstanding"] -= 1
    if refs["outstanding"] == 0 and refs["closing"]:
        yield from host.runtime.close(handle)


def _tenant_traffic(host: Host, path: str, n_ios: int,
                    spec: TrafficSpec, seed: int):
    """The arrival generator for one (host, tenant) stream.

    All randomness happens here, in arrival order — request processes
    receive fully-drawn plans, so completion order can never leak into
    the RNG stream (the open-loop determinism contract).
    """
    sim = host.sim
    rng = random.Random(seed)
    arrivals = arrival_stream(spec, rng)
    handle = yield from host.runtime.open(path, HINT_NORMAL)
    refs = {"outstanding": 0, "closing": False}
    scan_ios = max(1, min(spec.scan_ios, n_ios))
    hot_ios = max(1, int(n_ios * spec.hot_frac))
    now = 0.0
    for seq, t in enumerate(arrivals):
        if t > now:
            yield sim.timeout(t - now)
            now = t
        kind = spec.mix.draw(rng)
        if kind == "scan":
            plan = (kind, rng.randrange(max(1, n_ios - scan_ios + 1)),
                    scan_ios)
        elif kind == "hot":
            plan = (kind, rng.randrange(hot_ios), 1)
        else:
            plan = (kind, rng.randrange(n_ios), 1)
        refs["outstanding"] += 1
        sim.process(
            _request_proc(host, handle, plan, spec.io_bytes, refs),
            name=f"{host.name}/{path}/req{seq}")
    refs["closing"] = True
    if refs["outstanding"] == 0:
        yield from host.runtime.close(handle)


def _fleet_audit(auditor: Auditor, hosts: List[Host],
                 backends: list, managers: List[QosManager],
                 now: float) -> None:
    """Fleet-wide invariant audit; raises AuditError on violations."""
    for host in hosts:
        kernel = host.kernel
        auditor.check_now(kernel)
        auditor.check_fill_leaks(kernel, prefix=f"{host.name}: ")
    # Global byte conservation: the auditor's fill counter spans every
    # host, so the equality holds only over the *sum* of backends.
    consumed = sum(d.stats.read_bytes + d.stats.failed_read_bytes
                   + d.stats.aborted_read_bytes for d in backends)
    issued = auditor.fill_read_bytes \
        + sum(d.stats.retried_read_bytes for d in backends)
    if consumed != issued:
        auditor.violations.append(
            f"fleet device bytes not conserved: backends consumed "
            f"{consumed} read bytes but hosts issued {issued}")
    if now > 0:
        for i, device in enumerate(backends):
            util = device.stats.utilization(now)
            if util > 1.0 + 1e-9:
                auditor.violations.append(
                    f"backend{i} channel utilization {util:.3f} > 1.0")
    if managers:
        admitted = sum(state.admitted_blocks
                       for manager in managers
                       for state in manager.tenants.values())
        counted = sum(h.kernel.registry.get("cross.prefetch_blocks")
                      for h in hosts)
        if admitted != counted:
            auditor.violations.append(
                f"fleet qos admission not conserved: managers "
                f"admitted {admitted} blocks but hosts counted "
                f"{counted:g}")
        for manager in managers:
            for name, state in manager.tenants.items():
                if state.inflight != 0:
                    auditor.violations.append(
                        f"qos tenant {name!r} still has "
                        f"{state.inflight} prefetches in flight")
    auditor.final_check(None)


def _fingerprint(host_rows: List[dict], sim: Simulator) -> str:
    doc = {"events": sim.events_processed,
           "time_us": round(sim.now, 6),
           "hosts": host_rows}
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_fleet(config: FleetConfig) -> dict:
    """Run one fleet configuration to completion; returns a dict with
    ``metrics`` (fleet ApproachMetrics), ``hosts`` (per-host
    summaries), ``backends`` (per-backend device counters), and
    ``fingerprint`` (sha256 over per-host counters + engine totals —
    equal fingerprints mean bit-identical runs)."""
    sim = Simulator()
    auditor = Auditor(sim) if config.audit else None

    backends = []
    managers: List[QosManager] = []
    device_factory = config.machine.device_factory()
    qos_spec = None
    if config.n_tenants > 1:
        qos_spec = QosSpec(
            tenants=tuple(TenantSpec(name)
                          for name in _tenant_names(config.n_tenants)),
            rate_mb_per_s=config.qos_rate_mb_per_s)
    from repro.sim.stats import StatsRegistry
    for _b in range(config.n_backends):
        device = device_factory(sim, StatsRegistry())
        if qos_spec is not None:
            manager = QosManager(sim, qos_spec,
                                 registry=device.registry)
            device.set_qos(manager)
            managers.append(manager)
        backends.append(device)

    hosts: List[Host] = []
    for h in range(config.n_hosts):
        spec = HostSpec(host_id=h, approach=config.approach,
                        memory_bytes=config.memory_bytes)
        hosts.append(Host.in_fleet(spec, config.machine, sim=sim,
                                   backend=backends[h % config.n_backends]))

    tenants = _tenant_names(config.n_tenants)
    for host in hosts:
        for t_idx, tenant in enumerate(tenants):
            path = f"/{host.name}/{tenant}"
            host.create_file(path, config.file_bytes,
                             tenant=tenant if managers else None)
            n_ios = max(1, config.file_bytes // config.traffic.io_bytes)
            sim.process(
                _tenant_traffic(
                    host, path, n_ios, config.traffic,
                    traffic_seed(config.seed, host.spec.host_id,
                                 t_idx)),
                name=f"{host.name}/{tenant}/traffic")

    sim.run()
    duration_us = sim.now
    for host in hosts:
        host.teardown()
    sim.run()  # drain flusher/worker interrupts enqueued by teardown

    if auditor is not None:
        _fleet_audit(auditor, hosts, backends, managers, sim.now)

    host_rows = [host.summary() for host in hosts]
    latencies: List[float] = []
    for host in hosts:
        latencies.extend(host.latencies_us)
    metrics = ApproachMetrics(
        approach=config.approach,
        duration_us=duration_us,
        bytes_read=sum(h.request_bytes for h in hosts),
        ops=sum(h.requests for h in hosts),
        hit_pages=sum(h.hit_pages for h in hosts),
        miss_pages=sum(h.miss_pages for h in hosts),
        lock_wait_us=sum(h.kernel.registry.total_lock_wait
                         for h in hosts),
        thread_time_us=duration_us * config.n_hosts,
        latencies_us=latencies,
    )
    metrics.extra["sim_events"] = sim.events_processed
    metrics.extra["sim_time_us"] = sim.now
    metrics.extra["n_hosts"] = config.n_hosts
    metrics.extra["n_tenants"] = config.n_tenants
    metrics.extra["n_backends"] = config.n_backends
    metrics.extra["audited"] = config.audit
    backend_rows = [{
        "backend": i,
        "read_bytes": d.stats.read_bytes,
        "reads": d.stats.reads,
    } for i, d in enumerate(backends)]
    return {
        "metrics": metrics,
        "hosts": host_rows,
        "backends": backend_rows,
        "fingerprint": _fingerprint(host_rows, sim),
    }
