"""The kernel bundle: one simulated machine.

A :class:`Kernel` ties together a simulator, a storage device, the
memory manager, the VFS, and (optionally) Cross-OS, mirroring the
evaluation machine in §5.1.  Experiments construct one kernel per run so
every run starts with a cold cache, like the paper's ``drop_caches``
before each experiment.

A kernel normally owns its :class:`~repro.sim.engine.Simulator` and
:class:`~repro.sim.stats.StatsRegistry`; the cluster subsystem
(``repro.cluster``) instead passes a *shared* simulator so many kernels
— one per simulated host — interleave in a single deterministic event
order and contend for shared backend devices.  The single-host default
(``sim=None``) constructs exactly what it always did, in the same
order, so every existing experiment's event sequence is byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.os.config import KernelConfig
from repro.os.crossos import CrossOS
from repro.os.inode import Inode
from repro.os.memory import MemoryManager
from repro.os.mmap import MmapRegion
from repro.os.vfs import VFS, File
from repro.sim.audit import Auditor
from repro.sim.engine import Simulator
from repro.sim.faults import FaultEngine, FaultSpec
from repro.sim.observe import Observer
from repro.sim.qos import QosManager, QosSpec
from repro.sim.stats import StatsRegistry
from repro.storage.device import StorageDevice
from repro.storage.nvme import NVMeDevice

if TYPE_CHECKING:  # pragma: no cover - import cycle guard: the
    # crosslib package imports this module (runtime needs Kernel), so
    # the reverse import is type-only; the constructor defers it.
    from repro.crosslib.adaptive import AdaptivePolicy, AdaptiveSpec

__all__ = ["Kernel", "KernelConfig"]

GB = 1 << 30

DeviceFactory = Callable[[Simulator, StatsRegistry], StorageDevice]


def _default_device(sim: Simulator,
                    registry: StatsRegistry) -> StorageDevice:
    return NVMeDevice(sim, stats_registry=registry)


class Kernel:
    """One simulated machine: sim + device + memory + VFS (+ Cross-OS)."""

    def __init__(self, *,
                 memory_bytes: int = 8 * GB,
                 config: Optional[KernelConfig] = None,
                 device_factory: DeviceFactory = _default_device,
                 cross_enabled: bool = False,
                 tracer=None,
                 emit_lock_holds: bool = False,
                 audit: bool = False,
                 faults: Optional[FaultSpec] = None,
                 qos: Optional[QosSpec] = None,
                 adaptive: "Optional[AdaptiveSpec]" = None,
                 sim: Optional[Simulator] = None,
                 registry: Optional[StatsRegistry] = None,
                 inode_id_start: int = 1):
        self.config = config or KernelConfig()
        # ``sim``/``registry`` are None for a standalone machine (the
        # single-host case every paper experiment runs); a fleet passes
        # its shared engine plus a per-host registry, and a disjoint
        # ``inode_id_start`` namespace so stream ids never collide on a
        # shared backend device.
        self.sim = sim if sim is not None else Simulator()
        self.registry = registry if registry is not None \
            else StatsRegistry()
        self.tracer = tracer
        # The invariant auditor must exist before any lock is built so
        # every primitive registers with it; ``shutdown`` runs its final
        # cross-layer check.  Off (None) it costs nothing.
        self.auditor: Optional[Auditor] = None
        if audit:
            self.auditor = Auditor(self.sim)
        # Passing a tracer turns on the span layer: an Observer is wired
        # into the registry (and thus every lock category) and the
        # memory manager before any subsystem is built, so span-derived
        # lock-wait totals match the registry's exactly.
        self.observer: Optional[Observer] = None
        if tracer is not None:
            self.observer = Observer(self.sim, tracer,
                                     emit_holds=emit_lock_holds)
            self.registry.attach_observer(self.observer)
        total_pages = max(1, memory_bytes // self.config.page_size)
        self.mem = MemoryManager(total_pages,
                                 chunk_blocks=self.config.chunk_blocks,
                                 per_inode_lru=self.config.per_inode_lru)
        self.mem.observer = self.observer
        self.device = device_factory(self.sim, self.registry)
        # Fault injection attaches between device and VFS so the VFS
        # sees the resilient submit path from its first request.  A
        # disabled spec attaches nothing — byte-identical healthy run.
        self.fault_engine: Optional[FaultEngine] = None
        if faults is not None and faults.enabled:
            self.fault_engine = FaultEngine(self.sim, faults)
            self.device.set_fault_engine(self.fault_engine)
        # Durable-damage scenarios additionally attach the persistence
        # ledger (pure bookkeeping; no events), which the VFS write
        # paths and ``repro.sim.crash`` consume.
        self.durable = None
        if faults is not None and faults.durable:
            from repro.storage.durable import DurableState
            self.durable = DurableState(faults.seed, torn=faults.torn)
            self.device.set_durable(self.durable)
        # Multi-tenant QoS attaches after the fault engine (it reuses
        # the spec's degrade policy per tenant) and before the VFS so
        # the read path sees device.qos from its first request.  A spec
        # with no tenants attaches nothing — byte-identical run.
        self.qos: Optional[QosManager] = None
        if qos is not None and qos.enabled:
            policy = faults.degrade \
                if faults is not None and faults.enabled else None
            self.qos = QosManager(self.sim, qos, policy=policy,
                                  registry=self.registry)
            self.device.set_qos(self.qos)
        # The learned adaptive prefetch policy attaches last of the
        # optional subsystems: it links into the device (retry/fault
        # feeds), the fault engine (fault-class attribution), and the
        # QoS manager (SLO-driven weight boosts).  None attaches
        # nothing — byte-identical run (the fig5 fingerprint contract).
        self.adaptive: "Optional[AdaptivePolicy]" = None
        if adaptive is not None and adaptive.enabled:
            from repro.crosslib.adaptive import AdaptivePolicy
            self.adaptive = AdaptivePolicy(self.sim, adaptive,
                                           registry=self.registry)
            self.device.set_adaptive(self.adaptive)
            if self.fault_engine is not None:
                self.fault_engine.adaptive = self.adaptive
            if self.qos is not None:
                self.qos.adaptive = self.adaptive
        self.vfs = VFS(self.sim, self.device, self.mem, self.config,
                       self.registry, inode_id_start=inode_id_start)
        self.cross: Optional[CrossOS] = CrossOS(self.vfs) \
            if cross_enabled else None
        if self.auditor is not None:
            self.auditor.attach_kernel(self)

    # -- conveniences ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def create_file(self, path: str, size: int, *,
                    tenant: Optional[str] = None,
                    region: Optional[int] = None) -> Inode:
        """Create a file; optionally tag its stream with a QoS tenant
        and pin it to a device region for region-scoped faults."""
        inode = self.vfs.create(path, size)
        if self.durable is not None:
            # Pre-populated contents already exist on media.
            self.durable.seed_file(inode.id, size)
        if self.cross is not None:
            self.cross.attach(inode)
        if self.qos is not None:
            self.qos.register_stream(inode.id, tenant)
        if region is not None:
            self.device.place_stream(inode.id, region)
        return inode

    def mmap(self, file: File) -> MmapRegion:
        return MmapRegion(self.vfs, file)

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until)

    def shutdown(self) -> None:
        self.vfs.shutdown()
        if self.auditor is not None:
            # The flusher interrupt above is delivered through the event
            # heap; drain it so the final audit sees a quiescent machine.
            self.sim.run()
            self.auditor.final_check(self)
