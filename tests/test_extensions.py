"""Tests for the extension features: Markov/hybrid predictors, the
Leap-style baseline, and event tracing."""

import pytest

from repro.crosslib.config import CrossLibConfig
from repro.crosslib.markov import (
    HybridPredictor,
    MarkovPredictor,
    build_predictor,
)
from repro.crosslib.predictor import PatternPredictor
from repro.crosslib.runtime import CrossLibRuntime
from repro.os.kernel import Kernel
from repro.runtimes.base import HINT_RANDOM
from repro.runtimes.leap import LeapRuntime
from repro.sim.observe import spans_from
from repro.sim.trace import Tracer
from tests.conftest import drive

KB = 1 << 10
MB = 1 << 20


class TestMarkovPredictor:
    def _loop(self, predictor, regions, repeats=4):
        blocks = CrossLibConfig().markov_region_blocks
        for _ in range(repeats):
            for region in regions:
                predictor.observe(region * blocks, 4)

    def test_learns_repeating_sequence(self):
        p = MarkovPredictor()
        self._loop(p, [0, 7, 3, 11])
        # Current region is 11; next in the loop is 0.
        plan = p.plan(nblocks=100_000, relaxed=True)
        assert plan is not None
        assert plan.start == 0

    def test_no_plan_without_confidence(self):
        p = MarkovPredictor()
        blocks = CrossLibConfig().markov_region_blocks
        p.observe(0 * blocks, 4)
        p.observe(5 * blocks, 4)  # single sample: below min_samples
        assert p.plan(100_000, relaxed=True) is None

    def test_conflicting_successors_below_confidence(self):
        cfg = CrossLibConfig(markov_min_samples=2,
                             markov_confidence=0.8)
        p = MarkovPredictor(cfg)
        blocks = cfg.markov_region_blocks
        # region 0 followed by 1, 2, 3 equally: no 80% favourite.
        for nxt in (1, 2, 3):
            p.observe(0, 4)
            p.observe(nxt * blocks, 4)
        p.observe(0, 4)
        assert p.plan(100_000, relaxed=True) is None

    def test_plan_clamped_to_file(self):
        cfg = CrossLibConfig(markov_min_samples=1,
                             markov_confidence=0.1)
        p = MarkovPredictor(cfg)
        blocks = cfg.markov_region_blocks
        self._loop(p, [0, 2])
        p.observe(0, 4)
        plan = p.plan(nblocks=2 * blocks + 10, relaxed=True)
        assert plan is not None
        assert plan.start + plan.count <= 2 * blocks + 10


class TestHybridPredictor:
    def test_sequential_uses_counter(self):
        p = HybridPredictor()
        pos = 0
        for _ in range(10):
            p.observe(pos, 4)
            pos += 4
        plan = p.plan(100_000, relaxed=False)
        assert plan is not None
        assert plan.start == pos  # counter-style continuation

    def test_random_jumps_fall_back_to_markov(self):
        cfg = CrossLibConfig(markov_min_samples=2,
                             markov_confidence=0.5)
        p = HybridPredictor(cfg)
        blocks = cfg.markov_region_blocks
        for _ in range(5):
            p.observe(0, 4)
            p.observe(40 * blocks, 4)   # far repeating jump
        plan = p.plan(100_000, relaxed=False)
        # Counter sees random; Markov predicts region 0 after 40.
        assert plan is not None
        assert plan.start == 0


class TestPredictorFactory:
    def test_kinds(self):
        assert isinstance(build_predictor(CrossLibConfig()),
                          PatternPredictor)
        assert isinstance(
            build_predictor(CrossLibConfig(predictor_kind="markov")),
            MarkovPredictor)
        assert isinstance(
            build_predictor(CrossLibConfig(predictor_kind="hybrid")),
            HybridPredictor)
        with pytest.raises(ValueError):
            build_predictor(CrossLibConfig(predictor_kind="oracle"))

    def test_runtime_accepts_markov_predictor(self, kernel):
        kernel.create_file("/a", 4 * MB)
        runtime = CrossLibRuntime(
            kernel, CrossLibConfig(predictor_kind="hybrid",
                                   aggressive=False))

        def body():
            h = yield from runtime.open("/a", HINT_RANDOM)
            for _ in range(3):
                yield from runtime.pread(h, 0, 16 * KB)
                yield from runtime.pread(h, 2 * MB, 16 * KB)

        drive(kernel, body())
        runtime.teardown()


class TestLeapRuntime:
    def test_majority_trend_detected(self, plain_kernel):
        plain_kernel.create_file("/a", 16 * MB)
        runtime = LeapRuntime(plain_kernel)

        def body():
            h = yield from runtime.open("/a", HINT_RANDOM)
            # Strided stream: constant +8 block delta.
            pos = 0
            for _ in range(24):
                yield from runtime.pread(h, pos, 16 * KB)
                pos += 8 * 4096

        drive(plain_kernel, body())
        assert runtime.trend_prefetches > 0
        assert plain_kernel.registry.get("fill.leap_trend") > 0

    def test_no_trend_on_random(self, plain_kernel):
        import random
        plain_kernel.create_file("/a", 16 * MB)
        runtime = LeapRuntime(plain_kernel)
        rng = random.Random(9)

        def body():
            h = yield from runtime.open("/a", HINT_RANDOM)
            for _ in range(24):
                off = rng.randrange(0, 15 * MB) // 4096 * 4096
                yield from runtime.pread(h, off, 16 * KB)

        drive(plain_kernel, body())
        assert runtime.trend_prefetches <= 2  # coincidences at most

    def test_trend_prefetch_improves_strided_misses(self, plain_kernel):
        plain_kernel.create_file("/a", 32 * MB)
        runtime = LeapRuntime(plain_kernel)

        def body():
            h = yield from runtime.open("/a", HINT_RANDOM)
            pos = 0
            while pos < 24 * MB:
                yield from runtime.pread(h, pos, 16 * KB)
                pos += 40 * 4096  # beyond kernel ra's 32-block window

        drive(plain_kernel, body())
        hits = plain_kernel.registry.get("cache.demand_hits")
        misses = plain_kernel.registry.get("cache.demand_misses")
        assert hits / (hits + misses) > 0.4


class TestTracer:
    def test_record_and_query(self):
        tracer = Tracer(capacity=10)
        tracer.record(1.0, "read", inode=1, block=0)
        tracer.record(2.0, "fill", inode=1, pages=8)
        assert len(tracer) == 2
        assert tracer.count("read") == 1
        assert tracer.last("fill").attr("pages") == 8
        assert list(tracer.events("read"))[0].time == 1.0

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record(float(i), "e", i=i)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert list(tracer.events())[0].attr("i") == 2

    def test_between(self):
        tracer = Tracer()
        for i in range(10):
            tracer.record(float(i), "tick")
        assert len(list(tracer.between(3, 6))) == 4

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(0.0, "x")
        assert len(tracer) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_kernel_integration(self):
        tracer = Tracer()
        kernel = Kernel(memory_bytes=32 * MB, cross_enabled=True,
                        tracer=tracer)
        kernel.create_file("/a", 1 * MB)

        def body():
            f = kernel.vfs.open_sync("/a")
            yield from kernel.vfs.read(f, 0, 64 * KB)
            from repro.os.crossos import CacheInfo
            yield from kernel.cross.readahead_info(
                f, CacheInfo(offset=0, nbytes=256 * KB))

        drive(kernel, body())
        names = [(span.category, span.name) for span in spans_from(tracer)]
        assert names.count(("vfs", "read")) >= 1
        assert names.count(("crossos", "readahead_info")) == 1
        assert "span" in tracer.summary()
        kernel.shutdown()

    def test_ring_wraparound_keeps_index_consistent(self):
        # Regression: record() used list.pop(0) (O(n) per drop) and
        # between() rebuilt the whole time list per query.  Push twice
        # the capacity through and check drops, ordering, and range
        # queries against the retained window.
        capacity = 64
        tracer = Tracer(capacity=capacity)
        total = 2 * capacity
        for i in range(total):
            tracer.record(float(i), "tick", i=i)
        assert len(tracer) == capacity
        assert tracer.dropped == capacity
        assert tracer.recorded == total
        retained = list(tracer.events())
        assert [e.attr("i") for e in retained] == \
            list(range(capacity, total))
        times = [e.time for e in retained]
        assert times == sorted(times)
        # between() on the surviving window, straddling the drop
        # boundary, and fully inside the dropped prefix.
        got = [e.attr("i") for e in tracer.between(capacity + 5,
                                                   capacity + 9)]
        assert got == list(range(capacity + 5, capacity + 10))
        assert [e.attr("i") for e in tracer.between(0, capacity - 1)] == []
        straddle = [e.attr("i") for e in tracer.between(10, capacity + 2)]
        assert straddle == list(range(capacity, capacity + 3))

    def test_between_after_many_wraps(self):
        tracer = Tracer(capacity=8)
        for i in range(100):
            tracer.record(float(i), "tick", i=i)
        assert [e.attr("i") for e in tracer.between(95, 97)] == [95, 96, 97]
        tracer.clear()
        tracer.record(1.0, "tick", i=0)
        assert [e.attr("i") for e in tracer.between(0, 2)] == [0]

    def test_event_str_and_clear(self):
        tracer = Tracer()
        tracer.record(5.0, "demo", a=1)
        text = str(tracer.last())
        assert "demo" in text and "a=1" in text
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.last() is None
