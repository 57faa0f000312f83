"""Performance benchmark suite for the simulation core (``repro bench``).

The repo's value is running all 14 paper experiments at full scale, so
the simulator itself is a measured hot path.  This module defines a
small, stable set of benchmarks that report **wall-clock seconds** and
**simulated events per second** (heap pops per second of real time,
from :attr:`Simulator.events_processed`):

* ``engine_timeout`` — raw engine throughput: processes yielding pooled
  timeouts, nothing else.  Isolates layer-1 (engine) optimizations.
* ``engine_locks`` — engine + sync primitives: contended Lock/RwLock
  round-trips.  Isolates the primitives' acquire/release paths.
* ``fig5_quick`` — the Fig. 5 microbenchmark at the ``repro check``
  quick preset.  The representative end-to-end number; the regression
  gate in CI tracks this one hardest.
* ``fig2_quick`` — the Fig. 2 db_bench motivation preset: LSM reads,
  a different mix of cache hits and prefetch traffic.
* ``chaos_quick`` — the resilience sweep at a small preset: the same
  microbenchmark mix with the ``storm`` fault engine attached, so the
  fault-injection hooks and retry paths stay on the perf radar.
* ``qos_quick`` — the multi-tenant fairness experiment at a small
  preset: QoS accounting, token buckets, and the degrade clamp.
* ``cluster_quick`` — the fleet path at a small preset (2 hosts × 2
  tenants, one shared backend, open-loop arrivals): many kernels
  interleaving on one shared engine, so the ``repro scale`` sweep
  stays under the regression gate too.
* ``adaptive_quick`` — the learned-policy path at the ``repro check``
  quick preset: classifier + perceptron work on every ``pread``,
  adaptive caps in the readahead/Cross-OS paths, bulk gating and
  eviction bias (``docs/prefetching.md``), healthy and under storm.

Every bench reports ``sim_time_us`` (total simulated microseconds
across the kernels it ran) alongside ``events``, so events/µs-of-sim
drift is visible independently of wall clock; the document schema is
``bench_sim_core/v2`` (v1 lacked ``sim_time_us`` on the experiment
benches and is still accepted by the baseline reader).

Results are written as ``BENCH_sim_core.json``; the committed copy at
the repo root holds the **baseline** (captured before the PR-3 fast
path landed) and the **current** numbers, so every future PR can check
itself against the trajectory with::

    PYTHONPATH=src python -m repro bench \
        --baseline BENCH_sim_core.json --max-regression 0.3

Wall-clock numbers are machine-dependent; the regression gate compares
events/sec ratios, which moves the noise from absolute hardware speed
to scheduler jitter.  Use ``--repeat`` to take the best of N runs.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.sync import Lock, RwLock

__all__ = [
    "BENCHES",
    "compare_to_baseline",
    "run_bench",
    "run_suite",
]

MB = 1 << 20


# -- layer-1 microbenchmarks ---------------------------------------------------


def _bench_engine_timeout(scale: int = 1) -> dict:
    """Raw event-loop throughput: N processes × M pooled timeouts."""
    sim = Simulator()
    nprocs = 50
    nyields = 2_000 * scale

    def worker(tid: int):
        for _ in range(nyields):
            yield sim.timeout(1.0 + tid * 0.01)

    for tid in range(nprocs):
        sim.process(worker(tid), name=f"w{tid}")
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": sim.events_processed,
            "sim_time_us": sim.now}


def _bench_engine_locks(scale: int = 1) -> dict:
    """Sync-primitive round-trips: contended Lock + RwLock traffic."""
    sim = Simulator()
    lock = Lock(sim, "bench_lock")
    rw = RwLock(sim, "bench_rw")
    nprocs = 16
    rounds = 1_500 * scale

    def worker(tid: int):
        for i in range(rounds):
            yield lock.acquire()
            yield sim.timeout(0.1)
            lock.release()
            if (i + tid) % 4 == 0:
                yield rw.acquire_write()
                yield sim.timeout(0.1)
                rw.release_write()
            else:
                yield rw.acquire_read()
                yield sim.timeout(0.1)
                rw.release_read()

    for tid in range(nprocs):
        sim.process(worker(tid), name=f"w{tid}")
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": sim.events_processed,
            "sim_time_us": sim.now}


# -- experiment-preset benchmarks ----------------------------------------------


def _sum_extra(results, key: str) -> float:
    """Total a per-kernel ``metrics.extra`` telemetry value across an
    experiment's result tree (handles flat {approach: metrics}, nested
    {cell: {approach: metrics}}, and mixed shapes like the fairness
    result document)."""
    total = 0.0
    if hasattr(results, "extra"):
        return float(results.extra.get(key, 0))
    if isinstance(results, dict):
        for value in results.values():
            total += _sum_extra(value, key)
    return total


def _sum_events(results) -> int:
    """Total engine events across every kernel in a result tree."""
    return int(_sum_extra(results, "sim_events"))


def _experiment_result(t0: float, results) -> dict:
    return {"wall_s": time.perf_counter() - t0,
            "events": _sum_events(results),
            "sim_time_us": _sum_extra(results, "sim_time_us")}


def _bench_fig5_quick(scale: int = 1) -> dict:
    from repro.harness.experiments.micro import run_fig5_microbench
    t0 = time.perf_counter()
    results, _report = run_fig5_microbench(
        nthreads=4, memory_bytes=48 * MB,
        cells=("shared-seq", "shared-rand"))
    return _experiment_result(t0, results)


def _bench_fig2_quick(scale: int = 1) -> dict:
    from repro.harness.experiments.motivation import run_fig2_motivation
    t0 = time.perf_counter()
    results, _report = run_fig2_motivation(
        nthreads=4, ops_per_thread=50, num_keys=20_000)
    return _experiment_result(t0, results)


def _bench_chaos_quick(scale: int = 1) -> dict:
    from repro.harness.experiments.resilience import run_resilience
    t0 = time.perf_counter()
    results, _report = run_resilience(
        intensities=(0.0, 1.0), preset="storm", nthreads=4,
        memory_bytes=24 * MB)
    return _experiment_result(t0, results)


def _bench_qos_quick(scale: int = 1) -> dict:
    from repro.harness.experiments.fairness import run_fairness
    t0 = time.perf_counter()
    results, _report = run_fairness(memory_bytes=24 * MB)
    return _experiment_result(t0, results)


def _bench_cluster_quick(scale: int = 1) -> dict:
    """The fleet path: shared-engine multi-host run with open-loop
    traffic — many kernels interleaving on one heap, shared-backend
    contention, per-host registries (the ``repro scale`` hot path)."""
    from repro.harness.experiments.scale import run_scale
    t0 = time.perf_counter()
    results, _report = run_scale(
        hosts=(2,), tenant_counts=(2,), seed=0, rate_per_s=1500.0,
        horizon_us=120_000.0, file_mb=4)
    return _experiment_result(t0, results)


def _bench_adaptive_quick(scale: int = 1) -> dict:
    """The learned-policy path: classifier + perceptron on every
    ``pread``, adaptive caps in readahead/Cross-OS, bulk gating and
    victim bias, across the static-vs-adaptive sweep (the
    ``repro experiment adaptive`` hot path)."""
    from repro.harness.experiments.adaptive import run_adaptive
    t0 = time.perf_counter()
    results, _report = run_adaptive(
        memory_bytes=32 * MB, oversubscription=2.0, hot_ops=240)
    return _experiment_result(t0, results["rows"])


BENCHES: dict[str, Callable[[int], dict]] = {
    "engine_timeout": _bench_engine_timeout,
    "engine_locks": _bench_engine_locks,
    "fig5_quick": _bench_fig5_quick,
    "fig2_quick": _bench_fig2_quick,
    "chaos_quick": _bench_chaos_quick,
    "qos_quick": _bench_qos_quick,
    "cluster_quick": _bench_cluster_quick,
    "adaptive_quick": _bench_adaptive_quick,
}


# -- driver --------------------------------------------------------------------


def run_bench(name: str, *, scale: int = 1, repeat: int = 1) -> dict:
    """Run one benchmark; keeps the best (fastest) of ``repeat`` runs."""
    fn = BENCHES[name]
    best: Optional[dict] = None
    for _ in range(max(1, repeat)):
        result = fn(scale)
        if best is None or result["wall_s"] < best["wall_s"]:
            best = result
    assert best is not None
    events = best.get("events", 0)
    best["events_per_sec"] = (events / best["wall_s"]
                              if best["wall_s"] > 0 else 0.0)
    best["name"] = name
    return best


def run_suite(names: Optional[list[str]] = None, *, scale: int = 1,
              repeat: int = 1, jobs: int = 1) -> dict:
    """Run the suite; returns ``{bench_name: result}`` plus totals.

    With ``jobs > 1`` the benchmarks fan out across worker processes
    (each bench still runs alone inside its process, so its own timing
    is undisturbed apart from CPU sharing); results merge in suite
    order, identical to serial.
    """
    chosen = names or list(BENCHES)
    unknown = [n for n in chosen if n not in BENCHES]
    if unknown:
        raise KeyError(f"unknown bench(es): {', '.join(unknown)}")
    if jobs > 1 and len(chosen) > 1:
        from repro.harness.parallel import run_parallel
        results = run_parallel(
            _bench_task, [(name, scale, repeat) for name in chosen],
            jobs=jobs)
        benches = {name: result for name, result in zip(chosen, results)}
    else:
        benches = {name: run_bench(name, scale=scale, repeat=repeat)
                   for name in chosen}
    return {
        "schema": "bench_sim_core/v2",
        "scale": scale,
        "repeat": repeat,
        "benches": benches,
    }


def _bench_task(args: tuple) -> dict:
    name, scale, repeat = args
    return run_bench(name, scale=scale, repeat=repeat)


_KNOWN_SCHEMAS = ("bench_sim_core/v1", "bench_sim_core/v2")


def _baseline_benches(baseline: dict) -> dict:
    """Extract ``{name: result}`` from a baseline document.

    Accepts both schema v1 (no ``sim_time_us`` on the experiment
    benches) and v2, and both document shapes (a bare suite or a
    committed BENCH_sim_core.json with ``baseline``/``current``
    sections — the ``current`` section is the comparison target).
    """
    doc = baseline.get("current") or baseline
    schema = doc.get("schema")
    if schema is not None and schema not in _KNOWN_SCHEMAS:
        raise ValueError(f"unknown bench schema: {schema}")
    return doc.get("benches", {})


def compare_to_baseline(current: dict, baseline: dict, *,
                        max_regression: float = 0.3) -> list[str]:
    """Regression check: events/sec must not drop more than the budget.

    ``baseline`` is a committed BENCH_sim_core.json document; the
    comparison runs against its ``current`` section (the numbers the
    last optimization PR achieved), falling back to top-level benches.
    Both v1 and v2 baselines are accepted.  Returns a list of
    human-readable failures (empty = pass).
    """
    base_benches = _baseline_benches(baseline)
    failures: list[str] = []
    for name, result in current.get("benches", {}).items():
        base = base_benches.get(name)
        if base is None:
            continue
        base_eps = base.get("events_per_sec", 0.0)
        cur_eps = result.get("events_per_sec", 0.0)
        if base_eps <= 0:
            continue
        ratio = cur_eps / base_eps
        if ratio < 1.0 - max_regression:
            failures.append(
                f"{name}: {cur_eps:,.0f} events/s is "
                f"{100 * (1 - ratio):.1f}% below baseline "
                f"{base_eps:,.0f} (budget {100 * max_regression:.0f}%)")
    return failures


def format_suite(doc: dict) -> str:
    lines = [f"{'bench':<16} {'wall s':>9} {'events':>12} "
             f"{'events/s':>12} {'sim s':>9}"]
    for name, result in doc.get("benches", {}).items():
        lines.append(
            f"{name:<16} {result['wall_s']:>9.3f} "
            f"{result.get('events', 0):>12,} "
            f"{result.get('events_per_sec', 0.0):>12,.0f} "
            f"{result.get('sim_time_us', 0.0) / 1e6:>9.3f}")
    return "\n".join(lines)
