"""The LSM database: point gets, batch gets, iterators, puts,
flushes, and background compaction over the simulated VFS.

I/O behaviour mirrors RocksDB with the paper's configuration:

* no application block cache — all reads go through the page cache;
* per-thread file descriptors on shared SSTs (:class:`ThreadCtx`);
* a point get = one index-block read + one data-block read;
* MultiGet sorts its batch, producing the "batched-but-random" forward
  strides of the paper's multireadrandom workload;
* iterators stream data blocks forward or backward;
* puts append to the WAL and buffer in a memtable; a full memtable is
  flushed to an L0 table by a background job, and L0 build-up triggers
  a compaction that merges into the dense L1 run.

The *access hints* passed at open are the application's beliefs
(RocksDB marks point-query files random, iterator/compaction files
sequential); what a hint does depends on the runtime under test.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Generator, Optional

from repro.os.kernel import Kernel
from repro.runtimes.base import (
    HINT_RANDOM,
    HINT_SEQUENTIAL,
    Handle,
    IORuntime,
)
from repro.sim.sync import Condition
from repro.workloads.lsm.memtable import Memtable
from repro.workloads.lsm.sstable import SSTable
from repro.workloads.lsm.wal import WalLog

__all__ = ["DbConfig", "FlushedSSTable", "LsmDb", "ThreadCtx"]

MB = 1 << 20
_sst_ids = itertools.count(1)


@dataclass
class DbConfig:
    """Database shape (sizes already scaled by the caller)."""

    num_keys: int = 500_000
    value_size: int = 1024
    sst_bytes: int = 8 * MB
    memtable_bytes: int = 2 * MB
    l0_compaction_trigger: int = 4
    write_buffer_io: int = 1 * MB    # flush/compaction I/O unit
    op_cpu_us: float = 2.0           # per-op application CPU
    wal_path: str = "/db/WAL"
    seed: int = 7
    # Group commit: fsync the WAL every N puts (0 = never during the
    # run; close() still commits).  Crash/recovery scenarios set this
    # so there is a committed prefix for the invariants to bite on.
    wal_sync_ops: int = 0


class FlushedSSTable(SSTable):
    """An L0 table holding a sparse, explicit key set."""

    def __init__(self, path: str, keys: list[int], value_size: int,
                 block_size: int):
        self.sorted_keys = sorted(keys)
        super().__init__(path=path, level=0,
                         key_lo=self.sorted_keys[0],
                         key_hi=self.sorted_keys[-1] + 1,
                         value_size=value_size, block_size=block_size)
        self._key_set = frozenset(keys)

    @property
    def num_keys(self) -> int:  # sparse: actual count, not range width
        return len(self.sorted_keys)

    def contains(self, key: int) -> bool:
        # Stands in for the bloom filter + range check.
        return key in self._key_set

    def data_block_of(self, key: int) -> int:
        rank = bisect.bisect_left(self.sorted_keys, key)
        if rank >= len(self.sorted_keys) or self.sorted_keys[rank] != key:
            raise KeyError(key)
        return rank // self.keys_per_block


class ThreadCtx:
    """Per-application-thread state: its own FDs on the shared SSTs."""

    def __init__(self, db: "LsmDb", hint: str = HINT_RANDOM):
        self.db = db
        self.hint = hint
        self._handles: dict[int, Handle] = {}  # id(sst) -> handle
        self.gets = 0
        self.sst_reads = 0

    def handle(self, sst: SSTable, hint: Optional[str] = None) -> Generator:
        key = id(sst)
        handle = self._handles.get(key)
        if handle is None:
            handle = yield from self.db.runtime.open(sst.path,
                                                     hint or self.hint)
            self._handles[key] = handle
        return handle

    def close_all(self) -> Generator:
        for handle in self._handles.values():
            yield from self.db.runtime.close(handle)
        self._handles.clear()


class LsmDb:
    """The database instance."""

    def __init__(self, kernel: Kernel, runtime: IORuntime,
                 config: Optional[DbConfig] = None, prefix: str = "/db"):
        self.kernel = kernel
        self.runtime = runtime
        self.config = config or DbConfig()
        self.prefix = prefix
        self.block_size = kernel.config.block_size
        self.l0: list[SSTable] = []      # newest first
        self.l1: list[SSTable] = []      # sorted, non-overlapping
        self._l1_lo_keys: list[int] = []
        self.memtable = Memtable(self.config.value_size,
                                 self.config.memtable_bytes)
        self._imm: Optional[Memtable] = None
        self._seq = 0
        self._wal_handle: Optional[Handle] = None
        # Concurrent first puts share one open of the WAL: the first
        # opens it, the rest wait on ``_wal_opened``.
        self._wal_opening = False
        self._wal_opened = Condition(kernel.sim, "wal_open")
        self.wal = WalLog()
        self._puts_since_sync = 0
        self._compacting = False
        self._flushing = False
        self.stats = {"gets": 0, "puts": 0, "scans": 0, "flushes": 0,
                      "compactions": 0, "memtable_hits": 0}
        self.rng = random.Random(self.config.seed)

    # -- setup -----------------------------------------------------------------

    def populate(self) -> None:
        """Materialise a fully compacted L1 covering the keyspace.

        Files appear on the device without simulated I/O — this is the
        pre-experiment fill phase the paper excludes from timing.
        """
        cfg = self.config
        probe = SSTable(path="probe", level=1, key_lo=0, key_hi=1,
                        value_size=cfg.value_size,
                        block_size=self.block_size)
        keys_per_block = probe.keys_per_block
        data_bytes_per_key = cfg.value_size
        keys_per_sst = max(keys_per_block,
                           (cfg.sst_bytes // data_bytes_per_key)
                           // keys_per_block * keys_per_block)
        lo = 0
        while lo < cfg.num_keys:
            hi = min(cfg.num_keys, lo + keys_per_sst)
            sst = SSTable(path=f"{self.prefix}/L1-{next(_sst_ids):06d}.sst",
                          level=1, key_lo=lo, key_hi=hi,
                          value_size=cfg.value_size,
                          block_size=self.block_size)
            self.kernel.create_file(sst.path, sst.file_bytes)
            self.l1.append(sst)
            lo = hi
        self._l1_lo_keys = [sst.key_lo for sst in self.l1]
        self.kernel.create_file(cfg.wal_path, 0)

    @property
    def db_bytes(self) -> int:
        return sum(sst.file_bytes for sst in self.l1 + self.l0)

    def new_thread(self, hint: str = HINT_RANDOM) -> ThreadCtx:
        return ThreadCtx(self, hint)

    # -- read path ---------------------------------------------------------------

    def _l1_for(self, key: int) -> Optional[SSTable]:
        idx = bisect.bisect_right(self._l1_lo_keys, key) - 1
        if idx < 0:
            return None
        sst = self.l1[idx]
        return sst if sst.contains(key) else None

    def get(self, ctx: ThreadCtx, key: int) -> Generator:
        """Point lookup; returns True when found."""
        yield self.kernel.sim.timeout(self.config.op_cpu_us)
        self.stats["gets"] += 1
        ctx.gets += 1
        if key in self.memtable or (self._imm and key in self._imm):
            self.stats["memtable_hits"] += 1
            return True
        for sst in self.l0:
            if sst.contains(key):
                yield from self._read_key(ctx, sst, key)
                return True
        sst = self._l1_for(key)
        if sst is None:
            return False
        yield from self._read_key(ctx, sst, key)
        return True

    def _read_key(self, ctx: ThreadCtx, sst: SSTable,
                  key: int) -> Generator:
        handle = yield from ctx.handle(sst)
        yield from self.runtime.pread(handle, sst.index_offset(key),
                                      self.block_size)
        yield from self.runtime.pread(handle, sst.data_offset(key),
                                      self.block_size)
        ctx.sst_reads += 1

    def multiget(self, ctx: ThreadCtx, keys: list[int]) -> Generator:
        """Sorted batch get (RocksDB MultiGet): ascending per-SST reads."""
        yield self.kernel.sim.timeout(self.config.op_cpu_us)
        found = 0
        for key in sorted(keys):
            hit = yield from self.get(ctx, key)
            found += bool(hit)
        return found

    def scan(self, ctx: ThreadCtx, start_key: int, nkeys: int,
             reverse: bool = False) -> Generator:
        """Iterator over ``nkeys`` keys from ``start_key``."""
        yield self.kernel.sim.timeout(self.config.op_cpu_us)
        self.stats["scans"] += 1
        remaining = nkeys
        key = start_key
        while remaining > 0 and 0 <= key < self.config.num_keys:
            sst = self._l1_for(key)
            if sst is None:
                break
            handle = yield from ctx.handle(sst, HINT_SEQUENTIAL)
            yield from self.runtime.pread(handle, sst.index_offset(key),
                                          self.block_size)
            block = sst.data_block_of(key)
            step = -1 if reverse else 1
            while 0 <= block < sst.num_data_blocks and remaining > 0:
                yield from self.runtime.pread(
                    handle, sst.data_start + block * self.block_size,
                    self.block_size)
                remaining -= sst.keys_per_block
                block += step
            key = sst.key_lo - 1 if reverse else sst.key_hi
        return nkeys - max(0, remaining)

    # -- write path ----------------------------------------------------------------

    def _wal(self) -> Generator:
        while self._wal_handle is None:
            if self._wal_opening:
                yield self._wal_opened.wait()
                continue
            self._wal_opening = True
            try:
                self._wal_handle = yield from self.runtime.open(
                    self.config.wal_path, HINT_SEQUENTIAL)
            finally:
                self._wal_opening = False
                self._wal_opened.notify_all()
        return self._wal_handle

    def put(self, ctx: ThreadCtx, key: int) -> Generator:
        yield self.kernel.sim.timeout(self.config.op_cpu_us)
        self.stats["puts"] += 1
        wal = yield from self._wal()
        # Reserve the sequence number and the record's WAL range before
        # the write yields, so concurrent puts never share an offset and
        # offsets ascend with seq.
        self._seq += 1
        seq = self._seq
        offset = wal.pos
        nbytes = self.config.value_size + 12
        wal.pos = offset + nbytes
        yield from self.runtime.pwrite(wal, offset, nbytes)
        self.wal.append(seq, key, offset, nbytes)
        if self.config.wal_sync_ops > 0:
            self._puts_since_sync += 1
            if self._puts_since_sync >= self.config.wal_sync_ops:
                # Group commit: barrier the WAL, acknowledging every
                # record up to this one as durable.  Writes reach the
                # page cache in reservation order (they queue FIFO on
                # the inode lock), so all of them are written; ranges
                # reserved by puts still in flight, or written while
                # the barrier runs, are not covered.
                self._puts_since_sync = 0
                yield from self.runtime.fsync(wal)
                self.wal.commit(offset + nbytes)
        self.memtable.put(key, seq)
        if self.memtable.full and not self._flushing:
            self._rotate_memtable()
        return True

    def _rotate_memtable(self) -> None:
        self._imm = self.memtable
        self.memtable = Memtable(self.config.value_size,
                                 self.config.memtable_bytes)
        self._flushing = True
        self.kernel.sim.process(self._flush_job(), name="lsm_flush")

    def _flush_job(self) -> Generator:
        """Background flush: write the immutable memtable as an L0 SST."""
        imm = self._imm
        assert imm is not None and len(imm) > 0
        sst = FlushedSSTable(
            path=f"{self.prefix}/L0-{next(_sst_ids):06d}.sst",
            keys=imm.sorted_keys(),
            value_size=self.config.value_size,
            block_size=self.block_size)
        self.kernel.create_file(sst.path, 0)
        handle = yield from self.runtime.open(sst.path, HINT_SEQUENTIAL)
        yield from self._write_out(handle, sst.file_bytes)
        yield from self.runtime.fsync(handle)
        yield from self.runtime.close(handle)
        self.l0.insert(0, sst)
        self.stats["flushes"] += 1
        self._imm = None
        self._flushing = False
        if len(self.l0) >= self.config.l0_compaction_trigger \
                and not self._compacting:
            self._compacting = True
            self.kernel.sim.process(self._compact_job(),
                                    name="lsm_compact")

    def _write_out(self, handle: Handle, nbytes: int) -> Generator:
        unit = self.config.write_buffer_io
        written = 0
        while written < nbytes:
            n = min(unit, nbytes - written)
            yield from self.runtime.write_seq(handle, n)
            written += n

    def _compact_job(self) -> Generator:
        """Merge all L0 tables plus the overlapping L1 range."""
        victims = list(self.l0)
        lo = min(s.key_lo for s in victims)
        hi = max(s.key_hi for s in victims)
        overlap = [s for s in self.l1
                   if s.key_hi > lo and s.key_lo < hi]
        ctx = self.new_thread(HINT_SEQUENTIAL)
        # Read every input sequentially...
        for sst in victims + overlap:
            handle = yield from ctx.handle(sst, HINT_SEQUENTIAL)
            pos = 0
            while pos < sst.file_bytes:
                n = min(self.config.write_buffer_io, sst.file_bytes - pos)
                yield from self.runtime.pread(handle, pos, n)
                pos += n
        # ...and write the merged run back as fresh L1 tables.
        out_lo = min(lo, overlap[0].key_lo) if overlap else lo
        out_hi = max(hi, overlap[-1].key_hi) if overlap else hi
        keys_per_sst = max(1, (self.config.sst_bytes
                               // self.config.value_size))
        new_tables: list[SSTable] = []
        pos = out_lo
        while pos < out_hi:
            end = min(out_hi, pos + keys_per_sst)
            sst = SSTable(path=f"{self.prefix}/L1-{next(_sst_ids):06d}.sst",
                          level=1, key_lo=pos, key_hi=end,
                          value_size=self.config.value_size,
                          block_size=self.block_size)
            self.kernel.create_file(sst.path, 0)
            handle = yield from self.runtime.open(sst.path,
                                                  HINT_SEQUENTIAL)
            yield from self._write_out(handle, sst.file_bytes)
            yield from self.runtime.fsync(handle)
            yield from self.runtime.close(handle)
            new_tables.append(sst)
            pos = end
        yield from ctx.close_all()
        # Swap metadata, then drop the inputs.
        keep = [s for s in self.l1 if s not in overlap]
        self.l1 = sorted(keep + new_tables, key=lambda s: s.key_lo)
        self._l1_lo_keys = [s.key_lo for s in self.l1]
        for sst in victims:
            if sst in self.l0:
                self.l0.remove(sst)
        for sst in victims + overlap:
            self.kernel.vfs.unlink(sst.path)
        self.stats["compactions"] += 1
        self._compacting = False

    # -- teardown ----------------------------------------------------------------

    def manifest(self) -> list[SSTable]:
        """The installed tables — the durable MANIFEST a real LSM
        persists.  Installation points (post-fsync for L0 flushes, the
        metadata swap for compactions) are synchronous, so the manifest
        is consistent at any crash instant: every listed table was
        fully written and fsync'd before it appeared here."""
        return list(self.l0) + list(self.l1)

    def close(self) -> Generator:
        if self._wal_handle is not None:
            yield from self.runtime.fsync(self._wal_handle)
            self.wal.commit(self._wal_handle.pos)
            yield from self.runtime.close(self._wal_handle)
            self._wal_handle = None
