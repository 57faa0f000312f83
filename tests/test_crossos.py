"""Tests for Cross-OS: cache bitmaps and readahead_info."""

from repro.os.crossos import CacheInfo
from repro.os.kernel import Kernel
from tests.conftest import drive

KB = 1 << 10
MB = 1 << 20


class TestBitmapMirroring:
    def test_bitmap_tracks_inserts(self, kernel):
        inode = kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.fadvise(f, "random")  # no stock ra
            yield from kernel.vfs.read(f, 0, 256 * KB)

        drive(kernel, body())
        assert inode.cross.bitmap.count_set() == 64
        assert inode.cross.bitmap.all_set(0, 64)

    def test_bitmap_tracks_evictions(self, kernel):
        inode = kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.read(f, 0, 1 * MB)
            yield from kernel.vfs.fadvise(f, "dontneed", 0, 512 * KB)

        drive(kernel, body())
        assert inode.cross.bitmap.count_set() == 128
        assert not inode.cross.bitmap.any_set(0, 128)

    def test_attach_idempotent(self, kernel):
        inode = kernel.create_file("/a", 1 * MB)
        state1 = kernel.cross.attach(inode)
        state2 = kernel.cross.attach(inode)
        assert state1 is state2

    def test_attach_seeds_from_existing_residency(self):
        k = Kernel(memory_bytes=64 * MB, cross_enabled=False)
        inode = k.create_file("/a", 1 * MB)
        inode.cache.insert_range(0, 10)
        from repro.os.crossos import CrossOS
        cross = CrossOS(k.vfs)
        state = cross.attach(inode)
        assert state.bitmap.count_set() == 10
        k.shutdown()


class TestReadaheadInfo:
    def test_prefetch_and_export(self, kernel):
        kernel.create_file("/a", 8 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=1 * MB))
            yield kernel.sim.timeout(100_000)
            return info

        info = drive(kernel, body())
        assert info.prefetch_submitted == 256
        assert info.cached_pages == 0  # nothing was cached beforehand
        assert info.bitmap_count == 256
        # Submitted blocks are reported as coming in the window.
        assert info.bitmap_bits == (1 << 256) - 1
        assert kernel.vfs.lookup("/a").cache.cached_pages == 256

    def test_cached_range_elides_io(self, kernel):
        kernel.create_file("/a", 2 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.read(f, 0, 1 * MB)
            before = kernel.device.stats.reads
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=1 * MB))
            return info, before

        info, before = drive(kernel, body())
        assert info.prefetch_submitted == 0
        assert info.cached_pages == 256
        assert kernel.device.stats.reads == before

    def test_partial_cache_prefetches_only_gaps(self, kernel):
        kernel.create_file("/a", 2 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.fadvise(f, "random")  # no stock ra
            yield from kernel.vfs.read(f, 0, 512 * KB)
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=1 * MB))
            yield kernel.sim.timeout(100_000)
            return info

        info = drive(kernel, body())
        assert info.cached_pages == 128
        assert info.prefetch_submitted == 128

    def test_fetch_bitmap_only_is_control_plane(self, kernel):
        kernel.create_file("/a", 2 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=2 * MB,
                             fetch_bitmap_only=True))
            return info

        info = drive(kernel, body())
        assert info.prefetch_submitted == 0
        assert kernel.device.stats.reads == 0
        assert info.completion.processed  # immediately done

    def test_fetch_bitmap_only_leaves_planned_untouched(self, kernel):
        """Bitmap-only calls are pure control plane: nothing may be
        claimed in the planned bitmap, or later prefetches would skip
        blocks nobody is actually fetching."""
        inode = kernel.create_file("/a", 2 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=2 * MB,
                             fetch_bitmap_only=True))
            return info

        info = drive(kernel, body())
        assert info.prefetch_submitted == 0
        assert inode.planned.count_set() == 0
        assert inode.inflight.count_set() == 0

    def test_bitmap_window_beyond_eof_clamps(self, kernel):
        inode = kernel.create_file("/a", 1 * MB)
        nblocks = inode.nblocks

        def body():
            f = kernel.vfs.open_sync("/a")
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=0, fetch_bitmap_only=True,
                             bitmap_window=(nblocks - 8, 1000)))
            return info

        info = drive(kernel, body())
        assert info.bitmap_start == nblocks - 8
        assert info.bitmap_count == 8  # clamped to EOF, not 1000

    def test_caller_cap_above_kernel_cap_still_truncates(self, kernel):
        """A caller asking for a bigger per-request cap than the kernel
        allows must still be truncated at the kernel cap."""
        cap = kernel.config.cross_max_request_bytes
        kernel.create_file("/a", cap * 4)

        def body():
            f = kernel.vfs.open_sync("/a")
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=cap * 4,
                             max_request_bytes=cap * 2))
            return info

        info = drive(kernel, body())
        assert info.truncated
        assert info.prefetch_submitted == cap // kernel.config.block_size

    def test_request_truncated_at_cap(self, kernel):
        cap = kernel.config.cross_max_request_bytes
        kernel.create_file("/a", cap * 2)

        def body():
            f = kernel.vfs.open_sync("/a")
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=cap * 2))
            return info

        info = drive(kernel, body())
        assert info.truncated
        assert info.prefetch_submitted == cap // kernel.config.block_size

    def test_telemetry_fields(self, kernel):
        kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.fadvise(f, "random")  # no stock ra
            yield from kernel.vfs.read(f, 0, 64 * KB)
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=0, fetch_bitmap_only=True))
            return info

        info = drive(kernel, body())
        assert info.free_pages <= info.total_pages
        assert info.hit_pages + info.miss_pages == 16
        assert info.file_cached_pages == 16

    def test_selective_bitmap_window(self, kernel):
        kernel.create_file("/a", 4 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.read(f, 1 * MB, 256 * KB)
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=0, fetch_bitmap_only=True,
                             bitmap_window=(256, 64)))
            return info

        info = drive(kernel, body())
        assert info.bitmap_start == 256
        assert info.bitmap_count == 64
        assert info.bitmap_bits == (1 << 64) - 1

    def test_concurrent_calls_do_not_double_submit(self, kernel):
        kernel.create_file("/a", 4 * MB)

        def caller():
            f = kernel.vfs.open_sync("/a")
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=4 * MB))
            return info

        p1 = kernel.sim.process(caller())
        p2 = kernel.sim.process(caller())
        kernel.run()
        total = p1.value.prefetch_submitted + p2.value.prefetch_submitted
        assert total == 1024  # exactly the file, no duplicates
        assert kernel.device.stats.read_bytes == 4 * MB

    def test_demand_read_waits_for_prefetch_not_duplicate(self, kernel):
        kernel.create_file("/a", 4 * MB)

        def prefetcher():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=4 * MB))

        def reader():
            f = kernel.vfs.open_sync("/a")
            yield kernel.sim.timeout(10)
            yield from kernel.vfs.read(f, 2 * MB, 64 * KB)

        kernel.sim.process(prefetcher())
        kernel.sim.process(reader())
        kernel.run()
        assert kernel.device.stats.read_bytes == 4 * MB

    def test_delineated_path_avoids_tree_lock_lookup(self, kernel):
        kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=0, fetch_bitmap_only=True))

        drive(kernel, body())
        bitmap_stats = kernel.registry.lock_stats("inode_bitmap")
        tree_stats = kernel.registry.lock_stats("cache_tree")
        assert bitmap_stats.acquisitions >= 1
        assert tree_stats.acquisitions == 0


class TestControlPlane:
    """§4.4 control-plane operations: per-file prefetch disable."""

    def test_disable_prefetch_blocks_submissions(self, kernel):
        kernel.create_file("/a", 4 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=0, fetch_bitmap_only=True,
                             set_prefetch_disabled=True))
            assert info.prefetch_disabled
            info2 = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=1 * MB))
            return info2

        info2 = drive(kernel, body())
        assert info2.prefetch_submitted == 0
        assert kernel.device.stats.reads == 0

    def test_reenable_prefetch(self, kernel):
        kernel.create_file("/a", 4 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=0, fetch_bitmap_only=True,
                             set_prefetch_disabled=True))
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=1 * MB,
                             set_prefetch_disabled=False))
            yield kernel.sim.timeout(100_000)
            return info

        info = drive(kernel, body())
        assert not info.prefetch_disabled
        assert info.prefetch_submitted == 256

    def test_flag_none_leaves_state(self, kernel):
        kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=0, fetch_bitmap_only=True,
                             set_prefetch_disabled=True))
            info = yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=0, fetch_bitmap_only=True))
            return info

        info = drive(kernel, body())
        assert info.prefetch_disabled  # unchanged by the None default
