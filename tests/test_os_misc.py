"""Tests for inode, kernel bundle, stats registry, and fdtable."""

import pytest

from repro.crosslib.config import CrossLibConfig
from repro.crosslib.fdtable import UserFd, UserFileState
from repro.os.kernel import Kernel, KernelConfig
from repro.sim import StatsRegistry

KB = 1 << 10
MB = 1 << 20


class TestInode:
    def test_geometry(self, kernel):
        inode = kernel.create_file("/a", 10 * KB)
        assert inode.nblocks == 3  # 10 KB over 4 KB blocks
        assert inode.blocks_of(0) == 0
        assert inode.blocks_of(1) == 1
        assert inode.blocks_of(4096) == 1
        assert inode.blocks_of(4097) == 2

    def test_resize(self, kernel):
        inode = kernel.create_file("/a", 4 * KB)
        inode.set_size(64 * KB)
        assert inode.nblocks == 16
        assert inode.cache.nblocks == 16
        assert inode.inflight.nblocks == 16
        assert inode.planned.nblocks == 16
        with pytest.raises(ValueError):
            inode.set_size(-1)

    def test_set_size_resizes_only_when_block_count_changes(
            self, kernel, monkeypatch):
        inode = kernel.create_file("/a", 4 * KB)
        resized = []
        monkeypatch.setattr(inode.cache, "resize", resized.append)
        inode.set_size(4 * KB - 100)
        inode.set_size(4 * KB)
        assert resized == [] and inode.nblocks == 1
        inode.set_size(4 * KB + 1)
        assert resized == [2] and inode.nblocks == 2

    def test_negative_size_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.create_file("/bad", -5)

    def test_unique_ids(self, kernel):
        a = kernel.create_file("/a", KB)
        b = kernel.create_file("/b", KB)
        assert a.id != b.id


class TestKernel:
    def test_cross_flag(self):
        plain = Kernel(memory_bytes=8 * MB, cross_enabled=False)
        cross = Kernel(memory_bytes=8 * MB, cross_enabled=True)
        assert plain.cross is None
        assert cross.cross is not None
        plain.shutdown()
        cross.shutdown()

    def test_create_file_attaches_cross_state(self, kernel):
        inode = kernel.create_file("/a", 1 * MB)
        assert inode.cross is not None

    def test_config_applied(self):
        cfg = KernelConfig(ra_pages=8)
        k = Kernel(memory_bytes=8 * MB, config=cfg)
        f = k.vfs.open_sync(k.create_file("/a", 1 * MB).path)
        assert f.ra.ra_pages == 8
        k.shutdown()

    def test_memory_pages_derived(self):
        k = Kernel(memory_bytes=8 * MB)
        assert k.mem.total_pages == 8 * MB // 4096
        k.shutdown()

    def test_run_until(self, kernel):
        def ticker():
            while True:
                yield kernel.sim.timeout(10)

        kernel.sim.process(ticker())
        assert kernel.run(until=100) == 100


class TestStatsRegistry:
    def test_counters(self):
        registry = StatsRegistry()
        registry.count("x")
        registry.count("x", 2)
        assert registry.get("x") == 3
        assert registry.get("missing", -1) == -1

    def test_lock_stats_identity(self):
        registry = StatsRegistry()
        assert registry.lock_stats("a") is registry.lock_stats("a")

    def test_total_lock_wait_and_fraction(self):
        registry = StatsRegistry()
        registry.lock_stats("a").record_acquire(5.0)
        registry.lock_stats("b").record_acquire(15.0)
        assert registry.total_lock_wait == 20.0
        assert registry.lock_wait_fraction(100.0) == pytest.approx(0.2)
        assert registry.lock_wait_fraction(0.0) == 0.0
        assert registry.lock_wait_fraction(10.0) == 1.0  # clamped

    def test_snapshot_includes_locks(self):
        registry = StatsRegistry()
        registry.count("c", 4)
        registry.lock_stats("l").record_acquire(2.0)
        snap = registry.snapshot()
        assert snap["c"] == 4
        assert snap["lock.l.wait"] == 2.0
        assert snap["lock.l.contended"] == 1.0


class TestFdTable:
    def test_state_lifecycle(self, kernel):
        inode = kernel.create_file("/a", 1 * MB)
        pf = kernel.vfs.open_sync("/a")
        state = UserFileState(kernel.sim, kernel.registry, inode, pf,
                              CrossLibConfig())
        state.note_open(0.0)
        state.note_open(1.0)
        assert state.open_count == 2
        state.note_close(2.0)
        assert state.open_count == 1
        assert state.closed_at is None
        state.note_close(3.0)
        assert state.open_count == 0
        assert state.closed_at == 3.0

    def test_idle_tracking(self, kernel):
        inode = kernel.create_file("/a", 1 * MB)
        pf = kernel.vfs.open_sync("/a")
        state = UserFileState(kernel.sim, kernel.registry, inode, pf,
                              CrossLibConfig())
        state.note_access(10.0)
        assert state.idle_for(40.0) == 30.0

    def test_rangetree_mode_selects_node_size(self, kernel):
        inode = kernel.create_file("/a", 64 * MB)
        pf = kernel.vfs.open_sync("/a")
        with_tree = UserFileState(kernel.sim, kernel.registry, inode, pf,
                                  CrossLibConfig(range_tree=True))
        without = UserFileState(kernel.sim, kernel.registry, inode, pf,
                                CrossLibConfig(range_tree=False))
        assert with_tree.tree.node_blocks \
            == CrossLibConfig().node_blocks
        assert without.tree.node_blocks == inode.nblocks

    def test_userfd_has_own_predictor(self, kernel):
        inode = kernel.create_file("/a", 1 * MB)
        pf = kernel.vfs.open_sync("/a")
        cfg = CrossLibConfig()
        state = UserFileState(kernel.sim, kernel.registry, inode, pf,
                              cfg)
        fd1 = UserFd(state, kernel.vfs.open_sync("/a"), cfg)
        fd2 = UserFd(state, kernel.vfs.open_sync("/a"), cfg)
        assert fd1.predictor is not fd2.predictor
        assert fd1.state is fd2.state
        assert fd1.fd != fd2.fd
