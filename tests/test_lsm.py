"""Tests for the LSM store: SSTables, memtable, db operations."""

import pytest

from repro.os.kernel import Kernel
from repro.runtimes import OsOnlyRuntime
from repro.runtimes.base import HINT_RANDOM, HINT_SEQUENTIAL
from repro.workloads.lsm import DbConfig, LsmDb, Memtable, SSTable
from repro.workloads.lsm.db import FlushedSSTable
from tests.conftest import drive

KB = 1 << 10
MB = 1 << 20


class TestSSTable:
    def make(self, lo=0, hi=8192, value_size=1024):
        return SSTable(path="/t", level=1, key_lo=lo, key_hi=hi,
                       value_size=value_size, block_size=4096)

    def test_geometry(self):
        sst = self.make()
        assert sst.keys_per_block == 4
        assert sst.num_data_blocks == 2048
        assert sst.file_bytes == sst.data_start \
            + sst.num_data_blocks * 4096
        assert sst.data_start % 4096 == 0

    def test_key_lookup_offsets(self):
        sst = self.make()
        assert sst.contains(0)
        assert sst.contains(8191)
        assert not sst.contains(8192)
        assert sst.data_offset(0) == sst.data_start
        assert sst.data_offset(4) == sst.data_start + 4096
        assert sst.index_offset(0) == 0

    def test_key_out_of_range_raises(self):
        sst = self.make()
        with pytest.raises(KeyError):
            sst.data_block_of(9999)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            SSTable(path="/t", level=1, key_lo=5, key_hi=5,
                    value_size=1024, block_size=4096)

    def test_bad_value_size_rejected(self):
        with pytest.raises(ValueError):
            SSTable(path="/t", level=1, key_lo=0, key_hi=10,
                    value_size=8192, block_size=4096)

    def test_key_at_offset_inverts_block_of(self):
        sst = self.make(lo=100, hi=1000)
        for key in (100, 150, 999):
            block = sst.data_block_of(key)
            first = sst.key_at_offset(block)
            assert first <= key < first + sst.keys_per_block


class TestFlushedSSTable:
    def test_sparse_lookup(self):
        sst = FlushedSSTable(path="/t", keys=[5, 100, 7000],
                             value_size=1024, block_size=4096)
        assert sst.contains(100)
        assert not sst.contains(50)
        assert sst.num_keys == 3
        assert sst.data_block_of(5) == 0
        assert sst.data_block_of(7000) == 0  # all 3 fit one block

    def test_missing_key_raises(self):
        sst = FlushedSSTable(path="/t", keys=[1, 2], value_size=1024,
                             block_size=4096)
        with pytest.raises(KeyError):
            sst.data_block_of(3)


class TestMemtable:
    def test_put_get_and_full(self):
        mt = Memtable(value_size=1024, flush_bytes=4096)
        assert not mt.full
        for key in (3, 1, 2, 4):
            mt.put(key, key * 10)
        assert mt.full
        assert mt.get(3) == 30
        assert mt.get(99) is None
        assert mt.sorted_keys() == [1, 2, 3, 4]
        assert mt.key_range() == (1, 5)

    def test_empty_key_range_raises(self):
        mt = Memtable(1024, 4096)
        with pytest.raises(ValueError):
            mt.key_range()

    def test_bad_flush_bytes(self):
        with pytest.raises(ValueError):
            Memtable(1024, 0)


@pytest.fixture
def db():
    kernel = Kernel(memory_bytes=128 * MB, cross_enabled=False)
    runtime = OsOnlyRuntime(kernel)
    database = LsmDb(kernel, runtime,
                     DbConfig(num_keys=50_000, memtable_bytes=256 * KB))
    database.populate()
    yield kernel, database
    kernel.shutdown()


class TestDb:
    def test_populate_covers_keyspace(self, db):
        kernel, database = db
        assert database.l1[0].key_lo == 0
        assert database.l1[-1].key_hi == 50_000
        for a, b in zip(database.l1, database.l1[1:]):
            assert a.key_hi == b.key_lo
        # Files actually exist in the VFS.
        for sst in database.l1:
            assert kernel.vfs.exists(sst.path)

    def test_get_reads_index_and_data(self, db):
        kernel, database = db

        def body():
            ctx = database.new_thread(HINT_RANDOM)
            found = yield from database.get(ctx, 12_345)
            return found, ctx.sst_reads

        found, sst_reads = drive(kernel, body())
        assert found is True
        assert sst_reads == 1
        assert kernel.registry.get("syscalls.read") == 2  # index + data

    def test_get_missing_key(self, db):
        kernel, database = db

        def body():
            ctx = database.new_thread(HINT_RANDOM)
            found = yield from database.get(ctx, 10**9)
            return found

        assert drive(kernel, body()) is False

    def test_multiget_sorts_batch(self, db):
        kernel, database = db

        def body():
            ctx = database.new_thread(HINT_RANDOM)
            found = yield from database.multiget(ctx, [40_000, 5, 20_000])
            return found

        assert drive(kernel, body()) == 3

    def test_scan_forward_and_reverse(self, db):
        kernel, database = db

        def body():
            ctx = database.new_thread(HINT_SEQUENTIAL)
            fwd = yield from database.scan(ctx, 0, 1000)
            rev = yield from database.scan(ctx, 2000, 1000, reverse=True)
            return fwd, rev

        fwd, rev = drive(kernel, body())
        assert fwd >= 1000
        assert rev >= 1000

    def test_put_appends_wal_and_buffers(self, db):
        kernel, database = db

        def body():
            ctx = database.new_thread(HINT_RANDOM)
            for key in range(50):
                yield from database.put(ctx, key)

        drive(kernel, body())
        assert 50 in [len(database.memtable)] or len(database.memtable) <= 50
        assert kernel.registry.get("syscalls.write") >= 50
        assert database.stats["puts"] == 50

    def test_memtable_read_after_write(self, db):
        kernel, database = db

        def body():
            ctx = database.new_thread(HINT_RANDOM)
            yield from database.put(ctx, 123)
            reads_before = kernel.registry.get("syscalls.read")
            found = yield from database.get(ctx, 123)
            reads_after = kernel.registry.get("syscalls.read")
            return found, reads_before, reads_after

        found, before, after = drive(kernel, body())
        assert found
        assert after == before  # served from memtable, no I/O
        assert database.stats["memtable_hits"] == 1

    def test_flush_creates_l0_table(self, db):
        kernel, database = db
        per_flush = database.config.memtable_bytes \
            // database.config.value_size

        def body():
            ctx = database.new_thread(HINT_RANDOM)
            for key in range(per_flush + 10):
                yield from database.put(ctx, 100_000 + key)
            yield kernel.sim.timeout(2e6)

        drive(kernel, body())
        assert database.stats["flushes"] >= 1
        assert len(database.l0) >= 1 or database.stats["compactions"] >= 1

    def test_compaction_merges_l0_into_l1(self, db):
        kernel, database = db
        per_flush = database.config.memtable_bytes \
            // database.config.value_size
        trigger = database.config.l0_compaction_trigger

        def body():
            ctx = database.new_thread(HINT_RANDOM)
            for key in range((trigger + 1) * (per_flush + 1)):
                yield from database.put(ctx, key % 10_000)
            yield kernel.sim.timeout(20e6)

        drive(kernel, body())
        assert database.stats["compactions"] >= 1
        assert len(database.l0) < trigger
        # l1 remains sorted and non-overlapping
        for a, b in zip(database.l1, database.l1[1:]):
            assert a.key_hi <= b.key_lo

    def test_concurrent_puts_reserve_distinct_wal_records(self):
        # Unlocked writers overlap from the very first put (the WAL
        # open) and inside every write; each record must still get its
        # own offset, and the WAL must be exactly the records back to
        # back.
        kernel = Kernel(memory_bytes=128 * MB, cross_enabled=False)
        runtime = OsOnlyRuntime(kernel)
        config = DbConfig(num_keys=50_000, memtable_bytes=256 * KB,
                          wal_sync_ops=16)
        database = LsmDb(kernel, runtime, config)
        database.populate()
        writers, puts = 8, 200

        def writer(w):
            ctx = database.new_thread(HINT_RANDOM)
            for i in range(puts):
                yield from database.put(ctx, (w * puts + i) % 50_000)

        procs = [kernel.sim.process(writer(w), name=f"writer{w}")
                 for w in range(writers)]
        kernel.run()
        assert all(p.processed for p in procs)
        records = database.wal.records
        record_bytes = config.value_size + 12
        assert len(records) == writers * puts
        assert len({r.offset for r in records}) == writers * puts
        wal_size = kernel.vfs.lookup(config.wal_path).size
        assert wal_size == writers * puts * record_bytes
        # Offsets ascend with seq, so replaying an intact file walks
        # the records in seq order.
        assert [r.offset for r in records] == \
            sorted(r.offset for r in records)
        assert [r.seq for r in records] == sorted(r.seq for r in records)
        assert 0 < database.wal.committed_seq <= writers * puts
        kernel.shutdown()

    def test_close_flushes_wal(self, db):
        kernel, database = db

        def body():
            ctx = database.new_thread(HINT_RANDOM)
            yield from database.put(ctx, 1)
            yield from database.close()

        drive(kernel, body())
        assert kernel.registry.get("syscalls.fsync") >= 1
