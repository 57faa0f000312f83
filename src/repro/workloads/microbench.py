"""The §5.2 microbenchmark: private/shared × sequential/random.

Threads issue 16 KB reads (the paper's I/O size).  *private* gives each
thread its own file; *shared* gives all threads non-overlapping
partitions of one large file (the HPC pattern the paper cites [4]).

The *rand* pattern models the paper's "random" reads — which its
predictor taxonomy reveals to be a mix of sequential and random access,
not white noise: each thread visits fixed-size segments of its partition
in uniformly random order, reading each segment contiguously, a fraction
of them backward.  Stock kernel readahead restarts at every segment
jump and never handles the backward segments; CROSS-LIB's per-FD
predictor learns the run length and direction and prefetches each
segment in one large request.

``run_shared_rw`` is the Fig. 6 workload: N readers and a fixed set of
writers share one file, touching non-overlapping random ranges; the
paper reports aggregate write throughput as reader count grows.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Generator

from repro.harness.metrics import ApproachMetrics, collect_metrics
from repro.os.kernel import Kernel
from repro.runtimes.base import HINT_RANDOM, HINT_SEQUENTIAL, IORuntime

__all__ = [
    "MicrobenchConfig",
    "MicrobenchResult",
    "run_microbench",
    "run_shared_rw",
]

KB = 1 << 10
MB = 1 << 20

MicrobenchResult = ApproachMetrics


def _rand_offsets(base: int, part: int, seg: int, io_size: int,
                  backward_fraction: float,
                  rng: random.Random) -> array:
    """The *rand* pattern's absolute offset stream, batch-generated.

    Segments of the thread's partition are visited in uniformly random
    order, each read contiguously, a fraction backward.  Built as one
    ``array('q')`` up front — segment extension is a C-level
    ``range`` copy instead of a per-segment Python list + reverse —
    with the RNG consumed in exactly the order the issuing loop used to
    (one ``shuffle``, then one ``random()`` per segment), so seeded
    streams are bit-identical to the historical per-segment generation.
    """
    order = list(range(part // seg))
    rng.shuffle(order)
    last = (seg - 1) // io_size * io_size if seg > 0 else 0
    offsets = array("q")
    extend = offsets.extend
    backward = rng.random
    for s in order:
        seg_base = base + s * seg
        if backward() < backward_fraction:
            extend(range(seg_base + last, seg_base - io_size, -io_size))
        else:
            extend(range(seg_base, seg_base + seg, io_size))
    return offsets


@dataclass
class MicrobenchConfig:
    """Parameters of one microbenchmark run (already scaled)."""

    nthreads: int = 8
    io_size: int = 16 * KB
    total_bytes: int = 512 * MB      # dataset (2.15x memory in the paper)
    pattern: str = "rand"            # "seq" | "rand"
    sharing: str = "shared"          # "shared" | "private"
    segment_bytes: int = 1 * MB      # random-order visit granularity
    backward_fraction: float = 0.4   # segments read in reverse
    seed: int = 42
    # Capture per-pread latency samples (for p50/p99 under faults).
    # Off by default: the sample list is pure overhead for throughput
    # figures and keeps healthy runs allocation-identical.
    sample_latencies: bool = False

    def __post_init__(self):
        if self.pattern not in ("seq", "rand"):
            raise ValueError(f"bad pattern: {self.pattern}")
        if self.sharing not in ("shared", "private"):
            raise ValueError(f"bad sharing: {self.sharing}")


def run_microbench(kernel: Kernel, runtime: IORuntime,
                   config: MicrobenchConfig) -> MicrobenchResult:
    """Run the Fig. 5 / Table 3 microbenchmark; returns metrics."""
    # Partition boundaries aligned to the I/O size so per-thread bases
    # stay block-aligned regardless of the (possibly odd) total.
    part = (config.total_bytes // config.nthreads
            // config.io_size * config.io_size)
    paths: list[str] = []
    if config.sharing == "shared":
        kernel.create_file("/mb/shared", config.total_bytes)
        paths = ["/mb/shared"] * config.nthreads
    else:
        for tid in range(config.nthreads):
            path = f"/mb/private{tid}"
            kernel.create_file(path, part)
            paths.append(path)

    stats: list[tuple[int, int, int, float]] = []
    latencies: list[float] = [] if config.sample_latencies else None

    def reader(tid: int) -> Generator:
        rng = random.Random(config.seed * 1000 + tid)
        hint = HINT_SEQUENTIAL if config.pattern == "seq" else HINT_RANDOM
        handle = yield from runtime.open(paths[tid], hint)
        base = tid * part if config.sharing == "shared" else 0
        t0 = kernel.now
        total = hits = misses = 0
        io_size = config.io_size
        # Offsets are batch-generated up front (array('q') for the rand
        # pattern, a bare range for seq), so the issuing loop is a flat
        # single-level iteration with no per-segment bookkeeping.
        if config.pattern == "seq":
            offsets = range(base, base + part, io_size)
        else:
            offsets = _rand_offsets(base, part, config.segment_bytes,
                                    io_size, config.backward_fraction,
                                    rng)
        if latencies is not None:
            sim = kernel.sim
            for off in offsets:
                op_t0 = sim.now
                r = yield from runtime.pread(handle, off, io_size)
                latencies.append(sim.now - op_t0)
                total += r.nbytes
                hits += r.hit_pages
                misses += r.miss_pages
        else:
            pread = runtime.pread
            for off in offsets:
                r = yield from pread(handle, off, io_size)
                total += r.nbytes
                hits += r.hit_pages
                misses += r.miss_pages
        yield from runtime.close(handle)
        stats.append((total, hits, misses, kernel.now - t0))

    for tid in range(config.nthreads):
        kernel.sim.process(reader(tid), name=f"mb_reader[{tid}]")
    kernel.run()

    duration = max(s[3] for s in stats)
    return collect_metrics(
        runtime.name, kernel,
        duration_us=duration,
        bytes_read=sum(s[0] for s in stats),
        ops=sum(s[0] // config.io_size for s in stats),
        hit_pages=sum(s[1] for s in stats),
        miss_pages=sum(s[2] for s in stats),
        nthreads=config.nthreads,
        latencies_us=latencies,
    )


@dataclass
class SharedRwConfig:
    """Fig. 6: concurrent readers and writers on one shared file."""

    nreaders: int = 8
    nwriters: int = 4
    io_size: int = 16 * KB
    file_bytes: int = 512 * MB       # paper: 128 GB, scaled
    ops_per_thread: int = 2048
    seed: int = 42


def run_shared_rw(kernel: Kernel, runtime: IORuntime,
                  config: SharedRwConfig) -> MicrobenchResult:
    """Readers and writers on non-overlapping ranges of one file.

    Returns metrics whose throughput counts *written* bytes, matching
    the figure's y-axis; reader-side counters land in ``extra``.
    """
    kernel.create_file("/mb/rwshared", config.file_bytes)
    nthreads = config.nreaders + config.nwriters
    part = config.file_bytes // max(1, nthreads)
    done: list[dict] = []

    def worker(tid: int, is_writer: bool) -> Generator:
        rng = random.Random(config.seed * 977 + tid)
        handle = yield from runtime.open("/mb/rwshared", HINT_RANDOM)
        base = tid * part
        t0 = kernel.now
        moved = hits = misses = 0
        # Random non-overlapping 128 KB ranges inside the partition,
        # accessed contiguously (the paper's non-overlapping updates).
        # The per-op offsets are batch-generated: the issued stream is
        # the first ops_per_thread offsets of the shuffled slot spans,
        # exactly what the nested counting loop used to produce.
        io_size = config.io_size
        span = 8 * io_size
        slots = list(range(part // span))
        rng.shuffle(slots)
        offsets = array("q")
        for slot in slots:
            if len(offsets) >= config.ops_per_thread:
                break
            pos = base + slot * span
            offsets.extend(range(pos, pos + span, io_size))
        del offsets[config.ops_per_thread:]
        if is_writer:
            pwrite = runtime.pwrite
            for off in offsets:
                moved += yield from pwrite(handle, off, io_size)
        else:
            pread = runtime.pread
            for off in offsets:
                r = yield from pread(handle, off, io_size)
                moved += r.nbytes
                hits += r.hit_pages
                misses += r.miss_pages
        yield from runtime.close(handle)
        done.append(dict(writer=is_writer, moved=moved, hits=hits,
                         misses=misses, dt=kernel.now - t0))

    tid = 0
    for _ in range(config.nwriters):
        kernel.sim.process(worker(tid, True), name=f"mb_writer[{tid}]")
        tid += 1
    for _ in range(config.nreaders):
        kernel.sim.process(worker(tid, False), name=f"mb_reader[{tid}]")
        tid += 1
    kernel.run()

    duration = max(d["dt"] for d in done)
    written = sum(d["moved"] for d in done if d["writer"])
    read = sum(d["moved"] for d in done if not d["writer"])
    metrics = collect_metrics(
        runtime.name, kernel,
        duration_us=duration,
        bytes_written=written,
        ops=sum(d["moved"] // config.io_size for d in done),
        hit_pages=sum(d["hits"] for d in done),
        miss_pages=sum(d["misses"] for d in done),
        nthreads=nthreads,
        extra={"bytes_read": read, "nreaders": config.nreaders},
    )
    return metrics
