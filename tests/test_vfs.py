"""Tests for the VFS: reads, writes, prefetch syscalls, writeback."""

import pytest

from repro.os.vfs import (
    FADV_DONTNEED,
    FADV_RANDOM,
    FADV_SEQUENTIAL,
    FADV_WILLNEED,
)
from tests.conftest import drive

KB = 1 << 10
MB = 1 << 20


class TestNamespace:
    def test_create_lookup_unlink(self, kernel):
        kernel.create_file("/a", 1 * MB)
        assert kernel.vfs.exists("/a")
        assert kernel.vfs.lookup("/a").size == 1 * MB
        kernel.vfs.unlink("/a")
        assert not kernel.vfs.exists("/a")
        with pytest.raises(FileNotFoundError):
            kernel.vfs.lookup("/a")

    def test_duplicate_create_rejected(self, kernel):
        kernel.create_file("/a", 1 * MB)
        with pytest.raises(FileExistsError):
            kernel.create_file("/a", 1 * MB)

    def test_unlink_missing_rejected(self, kernel):
        with pytest.raises(FileNotFoundError):
            kernel.vfs.unlink("/nope")

    def test_unlink_releases_memory(self, kernel):
        kernel.create_file("/a", 4 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.read(f, 0, 4 * MB)

        drive(kernel, body())
        assert kernel.mem.used_pages > 0
        kernel.vfs.unlink("/a")
        assert kernel.mem.used_pages == 0

    def test_paths_sorted(self, kernel):
        kernel.create_file("/b", 1 * MB)
        kernel.create_file("/a", 1 * MB)
        assert kernel.vfs.paths() == ["/a", "/b"]

    def test_open_and_close(self, kernel):
        kernel.create_file("/a", 1 * MB)

        def body():
            f = yield from kernel.vfs.open("/a")
            yield from kernel.vfs.close(f)
            return f

        f = drive(kernel, body())
        assert f.closed
        assert kernel.registry.get("syscalls.open") == 1
        assert kernel.registry.get("syscalls.close") == 1


class TestRead:
    def test_cold_read_misses_then_hits(self, kernel):
        kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            first = yield from kernel.vfs.read(f, 0, 64 * KB)
            second = yield from kernel.vfs.read(f, 0, 64 * KB)
            return first, second

        first, second = drive(kernel, body())
        assert first.miss_pages == 16
        assert first.hit_pages == 0
        assert second.hit_pages == 16
        assert second.miss_pages == 0

    def test_read_clamped_to_eof(self, kernel):
        kernel.create_file("/a", 10 * KB)

        def body():
            f = kernel.vfs.open_sync("/a")
            r = yield from kernel.vfs.read(f, 8 * KB, 64 * KB)
            return r

        r = drive(kernel, body())
        assert r.nbytes == 2 * KB

    def test_read_past_eof_returns_zero(self, kernel):
        kernel.create_file("/a", 4 * KB)

        def body():
            f = kernel.vfs.open_sync("/a")
            r = yield from kernel.vfs.read(f, 1 * MB, 4 * KB)
            return r

        r = drive(kernel, body())
        assert r.nbytes == 0

    def test_sequential_stream_triggers_readahead(self, kernel):
        kernel.create_file("/a", 8 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            while f.pos < 8 * MB:
                yield from kernel.vfs.read_seq(f, 64 * KB)

        drive(kernel, body())
        assert kernel.registry.get("fill.os_ra_sync") >= 1
        assert kernel.registry.get("fill.os_ra_async") >= 1
        # Most of the stream was prefetched: miss rate tiny.
        hits = kernel.registry.get("cache.demand_hits")
        misses = kernel.registry.get("cache.demand_misses")
        assert misses / (hits + misses) < 0.05

    def test_concurrent_readers_deduplicate_device_io(self, kernel):
        kernel.create_file("/a", 2 * MB)

        def reader():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.fadvise(f, FADV_RANDOM)
            yield from kernel.vfs.read(f, 0, 2 * MB)

        kernel.sim.process(reader())
        kernel.sim.process(reader())
        kernel.run()
        assert kernel.device.stats.read_bytes == 2 * MB  # no duplicates


class TestWrite:
    def test_write_dirties_cache(self, kernel):
        kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            n = yield from kernel.vfs.write(f, 0, 128 * KB)
            return n

        n = drive(kernel, body())
        inode = kernel.vfs.lookup("/a")
        assert n == 128 * KB
        assert inode.cache.dirty_pages == 32

    def test_write_extends_file(self, kernel):
        kernel.create_file("/a", 0)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.write(f, 0, 256 * KB)

        drive(kernel, body())
        assert kernel.vfs.lookup("/a").size == 256 * KB

    def test_fsync_flushes_dirty_pages(self, kernel):
        kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.write(f, 0, 512 * KB)
            yield from kernel.vfs.fsync(f)

        drive(kernel, body())
        inode = kernel.vfs.lookup("/a")
        assert inode.cache.dirty_pages == 0
        assert kernel.device.stats.write_bytes >= 512 * KB

    def test_background_flusher_kicks_in(self, kernel):
        threshold = kernel.config.writeback_dirty_pages
        nbytes = (threshold + 64) * kernel.config.page_size
        kernel.create_file("/a", nbytes)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.write(f, 0, nbytes)
            # Give the flusher time to run.
            yield kernel.sim.timeout(10 * kernel.config.writeback_interval)

        drive(kernel, body())
        assert kernel.registry.get("writeback.pages") > 0


class TestPrefetchSyscalls:
    def test_readahead_clamped_to_cap(self, kernel):
        """The Fig. 1 pathology: ask 4 MB, get 128 KB."""
        kernel.create_file("/a", 8 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            submitted = yield from kernel.vfs.readahead(f, 0, 4 * MB)
            yield kernel.sim.timeout(50_000)
            return submitted

        submitted = drive(kernel, body())
        assert submitted == kernel.config.ra_syscall_cap_blocks
        inode = kernel.vfs.lookup("/a")
        assert inode.cache.cached_pages == submitted

    def test_fadvise_willneed_prefetches_async(self, kernel):
        kernel.create_file("/a", 8 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.fadvise(f, FADV_WILLNEED, 0, 1 * MB)
            yield kernel.sim.timeout(50_000)

        drive(kernel, body())
        inode = kernel.vfs.lookup("/a")
        assert inode.cache.cached_pages > 0

    def test_fadvise_dontneed_evicts(self, kernel):
        kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.read(f, 0, 1 * MB)
            yield from kernel.vfs.fadvise(f, FADV_DONTNEED, 0, 1 * MB)

        drive(kernel, body())
        assert kernel.vfs.lookup("/a").cache.cached_pages == 0

    def test_fadvise_sequential_and_random_flip_ra(self, kernel):
        kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.fadvise(f, FADV_SEQUENTIAL)
            hint = f.ra.sequential_hint
            yield from kernel.vfs.fadvise(f, FADV_RANDOM)
            return hint, f.ra.enabled

        hint, enabled = drive(kernel, body())
        assert hint is True
        assert enabled is False

    def test_fadvise_unknown_rejected(self, kernel):
        kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            with pytest.raises(ValueError):
                yield from kernel.vfs.fadvise(f, "bogus")

        drive(kernel, body())


class TestFincore:
    def test_fincore_reports_residency(self, kernel):
        kernel.create_file("/a", 2 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.fadvise(f, FADV_RANDOM)  # no stock ra
            yield from kernel.vfs.read(f, 0, 512 * KB)
            snapshot = yield from kernel.vfs.fincore(f)
            return snapshot

        snapshot = drive(kernel, body())
        assert snapshot.count_set() == 128
        assert snapshot.test(0)
        assert not snapshot.test(200)

    def test_fincore_serializes_on_mm_lock(self, kernel):
        kernel.create_file("/a", 8 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.read(f, 0, 8 * MB)

        drive(kernel, body())

        def caller():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.fincore(f)

        kernel.sim.process(caller())
        kernel.sim.process(caller())
        kernel.run()
        assert kernel.registry.lock_stats("mm").contended >= 1


class TestLookupRecheck:
    """A read probes residency once, under the tree read lock, and
    skips its fill when nothing was evicted by the end of its CPU
    cost; an eviction in that window still forces the refill."""

    def _setup(self, kernel):
        inode = kernel.create_file("/a", 1 * MB)
        f = kernel.vfs.open_sync("/a")
        f.ra.set_random()   # demand fills only: no readahead I/O
        drive(kernel, kernel.vfs.read(f, 0, 64 * KB))
        cfg = kernel.config
        cpu = cfg.syscall_overhead + 16 * (cfg.tree_walk_per_block
                                           + cfg.copy_per_page)
        return inode, f, cpu

    def _read_with(self, kernel, f, side):
        def body():
            kernel.sim.process(side(), name="side")
            return (yield from kernel.vfs.read(f, 0, 64 * KB))
        return drive(kernel, body())

    def test_eviction_inside_cpu_timeout_forces_refill(self, plain_kernel):
        kernel = plain_kernel
        inode, f, cpu = self._setup(kernel)
        reads = kernel.device.stats.reads

        def evictor():
            yield kernel.sim.timeout(cpu / 2)
            inode.cache.evict_range(4, 8)

        result = self._read_with(kernel, f, evictor)
        # Hits are counted at the lookup, before the eviction landed.
        assert (result.hit_pages, result.miss_pages) == (16, 0)
        assert kernel.device.stats.reads > reads
        assert inode.cache.present.all_set(0, 16)

    def test_resident_read_issues_no_io(self, plain_kernel):
        kernel = plain_kernel
        inode, f, cpu = self._setup(kernel)
        reads = kernel.device.stats.reads

        def toucher():
            yield kernel.sim.timeout(cpu / 2)
            inode.cache.touch_range(0, 16)

        result = self._read_with(kernel, f, toucher)
        assert (result.hit_pages, result.miss_pages) == (16, 0)
        assert kernel.device.stats.reads == reads
