"""The four workloads.  Each builds its inputs from the seed once, then
runs whole rounds: every round simulates both approaches on fresh
kernels from the same inputs, so every round of one seed produces the
same simulated results and only host time differs between rounds."""

from __future__ import annotations

import random
from contextlib import ExitStack
from dataclasses import dataclass, field

from perfbench import checks
from perfbench.model import (
    APPROACHES,
    ApproachRun,
    PhaseClock,
    RoundResult,
    device_raw,
    kernel_raw,
    qos_admitted,
)
from repro.cluster.fleet import FleetConfig, run_fleet
from repro.cluster.host import Host
from repro.cluster.traffic import TrafficSpec, arrival_stream, traffic_seed
from repro.crosslib.adaptive import AdaptiveSpec
from repro.harness.configs import MachineConfig, Scale
from repro.harness.runner import adapting, faulting, run_one, tenancy
from repro.runtimes.base import HINT_RANDOM
from repro.sim.faults import make_preset
from repro.sim.qos import QosSpec, TenantSpec
from repro.sim.sync import Lock
from repro.workloads.lsm import DbConfig, LsmDb
from repro.workloads.microbench import MicrobenchConfig, run_microbench
from repro.workloads.zipfian import ScrambledZipfian

KB = 1 << 10
MB = 1 << 20


class Microbench:
    """§5.2 / Fig. 5: 8 closed-loop readers issue 16 KB preads over a
    dataset 2.125x the page cache, in the shared-rand and private-rand
    cells, every optional subsystem off."""

    name = "microbench"
    cells = (("shared", "rand"), ("private", "rand"))
    memory_bytes = 192 * MB
    oversubscription = 2.125
    nthreads = 8
    io_size = 16 * KB
    segment_bytes = 1 * MB

    def __init__(self, seed: int):
        self.seed = seed
        # Partitions are whole segments, so every generated offset lies
        # inside its file and every read can return its full length.
        self.part = int(self.memory_bytes * self.oversubscription) \
            // self.nthreads // self.segment_bytes * self.segment_bytes
        self.total_bytes = self.part * self.nthreads

    def expected_reads(self, pattern: str) -> int:
        """Reads the offset generator yields for one cell: *seq* walks
        each partition in io-size steps; *rand* visits each whole
        segment once, io-size steps inside it."""
        if pattern == "seq":
            per_thread = self.part // self.io_size
        else:
            per_thread = (self.part // self.segment_bytes) \
                * (self.segment_bytes // self.io_size)
        return self.nthreads * per_thread

    def contexts(self) -> ExitStack:
        return ExitStack()

    def extra_checks(self, label: str, kernel) -> list[str]:
        return []

    def run_round(self, clock: PhaseClock) -> RoundResult:
        result = RoundResult()
        machine = MachineConfig.local_ext4(Scale())
        delivered: dict[str, int] = {}
        for short, approach in APPROACHES.items():
            run = result.runs[short]
            for sharing, pattern in self.cells:
                label = f"{self.name}/{short}/{sharing}-{pattern}"
                self._run_cell(clock, machine, approach, sharing, pattern,
                               run, result.errors, label)
            delivered[short] = run.raw["app_bytes"]
        result.errors += checks.check_same(f"{self.name} bytes delivered",
                                           delivered)
        return result

    def _run_cell(self, clock, machine, approach, sharing, pattern,
                  run: ApproachRun, errors: list, label: str) -> None:
        config = MicrobenchConfig(
            nthreads=self.nthreads, io_size=self.io_size,
            total_bytes=self.total_bytes, pattern=pattern,
            sharing=sharing, segment_bytes=self.segment_bytes,
            seed=self.seed, sample_latencies=True)

        def workload(kernel, runtime):
            with clock.phase():
                metrics = run_microbench(kernel, runtime, config)
            raw = kernel_raw(kernel)
            errors.extend(checks.check_device(
                label, read_bytes=raw["read_bytes"],
                write_bytes=raw["write_bytes"], elapsed_us=kernel.now,
                read_bw=kernel.device.read_bandwidth,
                write_bw=kernel.device.write_bandwidth,
                utilization=kernel.device.stats.utilization(kernel.now)))
            errors.extend(self.extra_checks(label, kernel))
            run.add_raw(raw)
            return metrics

        with self.contexts():
            metrics = run_one(machine, approach, workload,
                              memory_bytes=self.memory_bytes)
        reads = len(metrics.latencies_us)
        errors.extend(checks.check_reads(
            label, reads=reads, expected_reads=self.expected_reads(pattern),
            nbytes=metrics.bytes_read, io_size=self.io_size,
            pages=metrics.hit_pages + metrics.miss_pages,
            page_size=machine.kernel_config.page_size))
        errors.extend(checks.check_latencies(label, metrics.latencies_us,
                                             reads))
        run.ops += reads
        run.duration_us += metrics.duration_us
        run.events += metrics.extra["sim_events"]
        run.latencies_us.extend(metrics.latencies_us)
        run.add_raw({"hit_pages": metrics.hit_pages,
                     "miss_pages": metrics.miss_pages,
                     "app_bytes": metrics.bytes_read})


class Storm(Microbench):
    """Microbench private-rand under the ``storm`` fault preset, two QoS
    tenants with round-robin stream assignment, and the adaptive policy
    attached.  The fault scenario is fixed (preset seed 0); the read
    offsets come from the workload seed."""

    name = "storm"
    cells = (("private", "rand"),)
    memory_bytes = 256 * MB

    def contexts(self) -> ExitStack:
        stack = ExitStack()
        stack.enter_context(faulting(make_preset("storm", seed=0)))
        stack.enter_context(tenancy(QosSpec(
            tenants=(TenantSpec("a"), TenantSpec("b")))))
        stack.enter_context(adapting(AdaptiveSpec()))
        return stack

    def extra_checks(self, label: str, kernel) -> list[str]:
        return checks.check_faults(
            label, kernel.device.stats.faults_injected) + checks.check_qos(
            label, qos_admitted(kernel.qos),
            kernel.registry.get("cross.prefetch_blocks"))


class Kv:
    """YCSB-A-style: 8 closed-loop clients, each an even mix of gets and
    updates in seeded random order, keys Zipfian over a populated LSM
    store larger than the page cache.  Memtables flush to L0 tables;
    L0 compaction is not triggered, and updates pass one at a time
    through a simulated writer lock, because ``LsmDb.put`` appends to
    the shared WAL handle without one (see README.md)."""

    name = "kv"
    memory_bytes = 40 * MB
    nthreads = 8
    ops_per_thread = 5000
    num_keys = 100_000
    zipf_theta = 0.99
    # Simulated time allowed after the last client finishes for
    # background jobs; one still running then counts as failed.
    grace_us = 50_000.0
    step_us = 10_000.0
    max_sim_us = 5_000_000.0

    def __init__(self, seed: int):
        self.db_config = DbConfig(num_keys=self.num_keys,
                                  memtable_bytes=512 * KB,
                                  l0_compaction_trigger=1 << 30)
        # The WAL record of one put: the value plus a 12-byte header.
        self.record_bytes = self.db_config.value_size + 12
        rng = random.Random(seed)
        zipf = ScrambledZipfian(self.num_keys, self.zipf_theta,
                                random.Random(seed + 1))
        half = self.ops_per_thread // 2
        self.plans = []
        for _ in range(self.nthreads):
            kinds = [False] * half + [True] * (self.ops_per_thread - half)
            rng.shuffle(kinds)
            self.plans.append([(is_put, zipf()) for is_put in kinds])
        self.puts = sum(is_put for plan in self.plans
                        for is_put, _key in plan)

    def run_round(self, clock: PhaseClock) -> RoundResult:
        result = RoundResult()
        machine = MachineConfig.local_ext4(Scale())
        for short, approach in APPROACHES.items():
            self._run_approach(clock, machine, approach,
                               result.runs[short], result.errors,
                               f"{self.name}/{short}")
        return result

    def _run_approach(self, clock, machine, approach, run: ApproachRun,
                      errors: list, label: str) -> None:
        host = Host.single(machine, approach, self.memory_bytes)
        kernel = host.kernel
        db = LsmDb(kernel, host.runtime, self.db_config)
        db.populate()
        latencies: list[float] = []
        done: list[float] = []
        tally = {"missing": 0, "sst_reads": 0}
        writer = Lock(kernel.sim, "kv_writer",
                      stats=kernel.registry.lock_stats("kv_writer"))

        def client(plan):
            ctx = db.new_thread(HINT_RANDOM)
            for is_put, key in plan:
                t0 = kernel.now
                if is_put:
                    yield writer.acquire()
                    yield from db.put(ctx, key)
                    writer.release()
                else:
                    found = yield from db.get(ctx, key)
                    tally["missing"] += not found
                latencies.append(kernel.now - t0)
            tally["sst_reads"] += ctx.sst_reads
            yield from ctx.close_all()
            done.append(kernel.now)

        with clock.phase():
            for tid, plan in enumerate(self.plans):
                kernel.sim.process(client(plan), name=f"kv_client[{tid}]")
            while len(done) < self.nthreads \
                    and kernel.now < self.max_sim_us:
                before = kernel.now
                kernel.run(kernel.now + self.step_us)
                if kernel.now == before:
                    break  # the event queue drained
            if len(done) == self.nthreads:
                kernel.run(max(done) + self.grace_us)
        try:
            if len(done) < self.nthreads:
                errors.append(f"{label}: {self.nthreads - len(done)} "
                              "clients unfinished at "
                              f"{self.max_sim_us:.0f} us")
                return
            # A background job still running at the deadline failed.
            stuck = int(db._flushing) + int(db._compacting)
            run.ops += len(latencies) + db.stats["flushes"] \
                + db.stats["compactions"] + stuck
            run.failed += stuck
            run.duration_us += max(done)
            run.events += kernel.sim.events_processed
            run.latencies_us.extend(latencies)
            raw = kernel_raw(kernel)
            raw.update({
                "hit_pages": kernel.registry.get("cache.demand_hits"),
                "miss_pages": kernel.registry.get("cache.demand_misses"),
                "app_bytes": tally["sst_reads"] * 2 * db.block_size,
                "lsm_flushes": db.stats["flushes"],
                "lsm_compactions": db.stats["compactions"],
            })
            run.add_raw(raw)
            errors.extend(checks.check_kv(
                label, gets=db.stats["gets"], missing=tally["missing"],
                puts=self.puts,
                wal_bytes=kernel.vfs.lookup(self.db_config.wal_path).size,
                record_bytes=self.record_bytes))
            errors.extend(checks.check_latencies(label, latencies,
                                                 self.nthreads
                                                 * self.ops_per_thread))
            errors.extend(checks.check_device(
                label, read_bytes=raw["read_bytes"],
                write_bytes=raw["write_bytes"], elapsed_us=kernel.now,
                read_bw=kernel.device.read_bandwidth,
                write_bw=kernel.device.write_bandwidth,
                utilization=kernel.device.stats.utilization(kernel.now)))
        finally:
            host.teardown()


@dataclass
class _RecordingMachine(MachineConfig):
    """A machine preset that keeps the backend devices a fleet builds
    from it, so the benchmark can read their DeviceStats."""

    devices: list = field(default_factory=list)

    def device_factory(self):
        build = super().device_factory()

        def factory(sim, registry):
            device = build(sim, registry)
            self.devices.append(device)
            return device
        return factory


class Fleet:
    """2 hosts x 2 tenants on one shared NVMe-oF backend, each (host,
    tenant) stream driven by seeded open-loop Poisson arrivals with the
    default point/scan/hot mix."""

    name = "fleet"
    n_hosts = 2
    n_tenants = 2
    memory_bytes = 16 * MB         # per host
    file_bytes = 16 * MB           # per (host, tenant)
    rate_per_s = 2000.0            # per (host, tenant) stream
    horizon_us = 2_000_000.0

    def __init__(self, seed: int):
        self.seed = seed
        self.traffic = TrafficSpec(rate_per_s=self.rate_per_s,
                                   horizon_us=self.horizon_us)
        # The benchmark's own count of the requests the streams carry:
        # the same seeded arrival process the fleet draws from.
        self.generated = sum(
            len(arrival_stream(self.traffic, random.Random(
                traffic_seed(seed, host, tenant))))
            for host in range(self.n_hosts)
            for tenant in range(self.n_tenants))
        mix, io = self.traffic.mix, self.traffic.io_bytes
        weight = mix.point + mix.scan + mix.hot
        mean = io * (mix.point + mix.scan * self.traffic.scan_ios
                     + mix.hot) / weight
        mean_sq = io * io * (mix.point + mix.scan
                             * self.traffic.scan_ios ** 2
                             + mix.hot) / weight
        streams = self.n_hosts * self.n_tenants
        self.expected_bytes, self.tolerance = checks.poisson_tolerance(
            streams * self.rate_per_s / 1e6, self.horizon_us, mean, mean_sq)

    def run_round(self, clock: PhaseClock) -> RoundResult:
        result = RoundResult()
        for short, approach in APPROACHES.items():
            self._run_approach(clock, approach, result.runs[short],
                               result.errors, f"{self.name}/{short}")
        return result

    def _run_approach(self, clock, approach, run: ApproachRun,
                      errors: list, label: str) -> None:
        machine = _RecordingMachine.remote_nvmeof(Scale())
        config = FleetConfig(
            n_hosts=self.n_hosts, n_backends=1, n_tenants=self.n_tenants,
            approach=approach, machine=machine,
            memory_bytes=self.memory_bytes, file_bytes=self.file_bytes,
            seed=self.seed, traffic=self.traffic)
        with clock.phase():
            out = run_fleet(config)
        metrics = out["metrics"]
        (device,) = machine.devices
        elapsed = metrics.extra["sim_time_us"]
        prefetch_blocks = sum(row["prefetch_blocks"] for row in out["hosts"])
        admitted = qos_admitted(device.qos)
        raw = device_raw(device, elapsed)
        raw.update({
            "hit_pages": metrics.hit_pages,
            "miss_pages": metrics.miss_pages,
            "lock_wait_us": metrics.lock_wait_us,
            "app_bytes": metrics.bytes_read,
            "prefetch_pages": prefetch_blocks,
            "degrade_transitions":
                device.registry.get("device.degrade_transitions")
                + device.registry.get("qos.degrade_transitions"),
            "qos_admitted": sum(admitted.values()),
        })
        run.add_raw(raw)
        run.ops += metrics.ops
        run.duration_us += metrics.duration_us
        run.events += metrics.extra["sim_events"]
        run.latencies_us.extend(metrics.latencies_us)
        errors.extend(checks.check_fleet(
            label, completed=metrics.ops, generated=self.generated,
            served_bytes=metrics.bytes_read,
            expected_bytes=self.expected_bytes, tolerance=self.tolerance))
        errors.extend(checks.check_latencies(label, metrics.latencies_us,
                                             self.generated))
        errors.extend(checks.check_qos(label, admitted, prefetch_blocks))
        errors.extend(checks.check_device(
            label, read_bytes=raw["read_bytes"],
            write_bytes=raw["write_bytes"], elapsed_us=elapsed,
            read_bw=device.read_bandwidth, write_bw=device.write_bandwidth,
            utilization=device.stats.utilization(elapsed)))


WORKLOADS = {cls.name: cls for cls in (Microbench, Kv, Storm, Fleet)}
