"""Tests for the per-inode page cache."""

import pytest

from repro.os.kernel import Kernel

MB = 1 << 20


@pytest.fixture
def inode():
    kernel = Kernel(memory_bytes=64 * MB, cross_enabled=False)
    yield kernel.create_file("/f", 4 * MB)
    kernel.shutdown()


class TestInsertEvict:
    def test_insert_range_counts_new_pages(self, inode):
        cache = inode.cache
        assert cache.insert_range(0, 10) == 10
        assert cache.insert_range(5, 10) == 5  # overlap re-insert
        assert cache.cached_pages == 15

    def test_insert_zero_and_negative(self, inode):
        assert inode.cache.insert_range(0, 0) == 0
        assert inode.cache.insert_range(0, -3) == 0

    def test_evict_range(self, inode):
        cache = inode.cache
        cache.insert_range(0, 100)
        freed = cache.evict_range(10, 20)
        assert freed == 20
        assert cache.cached_pages == 80
        assert cache.evict_range(10, 20) == 0  # already gone

    def test_evict_chunk_frees_lru_entry(self, inode):
        cache = inode.cache
        cache.insert_range(0, 64)  # chunks 0 and 1 (32 blocks each)
        freed = cache.evict_chunk(0)
        assert freed == 32
        assert cache.cached_pages == 32
        assert not cache.present.any_set(0, 32)

    def test_evict_chunk_beyond_file(self, inode):
        assert inode.cache.evict_chunk(10_000) == 0

    def test_memory_accounting_tracks_inserts(self, inode):
        mem = inode.cache.mem
        before = mem.used_pages
        inode.cache.insert_range(0, 50)
        assert mem.used_pages == before + 50
        inode.cache.evict_range(0, 50)
        assert mem.used_pages == before


class TestDirty:
    def test_dirty_tracking(self, inode):
        cache = inode.cache
        cache.insert_range(0, 10, dirty=True)
        assert cache.dirty_pages == 10
        cache.clean_range(0, 5)
        assert cache.dirty_pages == 5

    def test_evict_clears_dirty(self, inode):
        cache = inode.cache
        cache.insert_range(0, 10, dirty=True)
        cache.evict_range(0, 10)
        assert cache.dirty_pages == 0


class TestQueries:
    def test_missing_runs(self, inode):
        cache = inode.cache
        cache.insert_range(5, 5)
        assert cache.missing_runs(0, 15) == [(0, 5), (10, 5)]

    def test_all_resident(self, inode):
        cache = inode.cache
        cache.insert_range(0, 10)
        assert cache.all_resident(0, 10)
        assert not cache.all_resident(0, 11)

    def test_resident_count(self, inode):
        cache = inode.cache
        cache.insert_range(0, 7)
        assert cache.resident_count(0, 20) == 7


class TestHooks:
    def test_insert_and_evict_hooks_fire(self, inode):
        cache = inode.cache
        inserts, evicts = [], []
        cache.insert_hooks.append(lambda s, c: inserts.append((s, c)))
        cache.evict_hooks.append(lambda s, c: evicts.append((s, c)))
        cache.insert_range(0, 8)
        cache.evict_range(0, 8)
        assert inserts == [(0, 8)]
        assert evicts == [(0, 8)]


class TestEvictionCounter:
    """PageCache.evictions moves on every eviction that frees pages and
    on no other call."""

    def test_evict_chunk_moves_counter(self, inode):
        cache = inode.cache
        cache.insert_range(0, 64)
        assert cache.evictions == 0
        cache.evict_chunk(1)
        assert cache.evictions == 1
        cache.evict_chunk(1)        # already empty: no-op
        cache.evict_chunk(10_000)   # beyond the file: no-op
        assert cache.evictions == 1

    def test_evict_range_moves_counter(self, inode):
        cache = inode.cache
        cache.insert_range(0, 100)
        cache.evict_range(10, 20)
        assert cache.evictions == 1
        cache.evict_range(10, 20)   # already gone
        cache.evict_range(0, 0)
        assert cache.evictions == 1

    def test_inserts_and_touches_leave_counter(self, inode):
        cache = inode.cache
        cache.insert_range(0, 100)
        cache.touch_range(0, 100)
        cache.clean_range(0, 100)
        assert cache.evictions == 0

    def test_fadvise_dontneed_moves_counter(self):
        from repro.os.vfs import FADV_DONTNEED
        from tests.conftest import drive
        kernel = Kernel(memory_bytes=64 * MB, cross_enabled=False)
        inode = kernel.create_file("/f", 1 * MB)
        f = kernel.vfs.open_sync("/f")

        def body():
            yield from kernel.vfs.read(f, 0, 64 * 1024)
            yield from kernel.vfs.fadvise(f, FADV_DONTNEED, 0, 64 * 1024)
            moved = inode.cache.evictions
            yield from kernel.vfs.fadvise(f, FADV_DONTNEED, 0, 64 * 1024)
            return moved

        assert drive(kernel, body()) == 1
        assert inode.cache.evictions == 1
        kernel.shutdown()


class TestDirtyTotal:
    """MemoryManager.dirty_pages is the running sum of every cache's
    dirty pages."""

    def test_tracks_insert_clean_and_evict(self, inode):
        cache, mem = inode.cache, inode.cache.mem
        cache.insert_range(0, 40, dirty=True)
        cache.insert_range(30, 20, dirty=True)   # 10 overlap
        assert mem.dirty_pages == cache.dirty_pages == 50
        cache.clean_range(0, 10)
        assert mem.dirty_pages == 40
        cache.evict_range(40, 100)
        assert mem.dirty_pages == cache.dirty_pages == 30
        cache.evict_chunk(0)                     # blocks 0..31
        assert mem.dirty_pages == cache.dirty_pages == 8

    def test_shrink_drops_truncated_dirty_pages(self, inode):
        cache, mem = inode.cache, inode.cache.mem
        cache.insert_range(0, 64, dirty=True)
        inode.set_size(16 * 4096)
        assert mem.dirty_pages == cache.dirty_pages == 16
        assert cache.evictions == 1
