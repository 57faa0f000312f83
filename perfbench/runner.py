"""Run one workload for a fixed host time and report its metrics.

A run repeats whole rounds until ``seconds`` of host time have passed
(at least one round).  Every round simulates the same inputs, so the
simulated metrics come from the first round and every later round must
reproduce them exactly.  Host figures are means over the untraced
rounds; the first round warms up and is left out of them when at least
three were run.  With tracing on, each untraced round is followed by a
profiled one, and the per-layer host numbers are medians over the
profiled rounds.
"""

from __future__ import annotations

import cProfile
import heapq
import json
import math
import os
import resource
import statistics
import sys
import time

from perfbench import layers, reference
from perfbench.model import APPROACHES, SIM_LAYER_UNITS, PhaseClock
from perfbench.workloads import WORKLOADS

# End-to-end metrics: name -> unit (BENCHMARK.json lists the same).
E2E_UNITS = {
    "setup_s": "s",
    "host_x": "x",  # round host time in reference-slice units
    "peak_rss_mb": "MB",
    "os_kops": "kops/s",
    "cross_kops": "kops/s",
    "os_mean_us": "us",
    "cross_mean_us": "us",
    "os_tail_us": "us",
    "cross_tail_us": "us",
}

HOST_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in layers.LAYERS},
    "engine.events": "count",
    "engine.events_per_s": "1/s",
    "vfs.read_calls": "count",
    "bitmap.calls": "count",
    "trace.overhead_x": "ratio",
    "host.wall_s": "s",
    "host.reference_s": "s",
}

PER_LAYER_UNITS = {
    **HOST_LAYER_UNITS,
    **{f"{short}.{name}": unit for short in APPROACHES
       for name, unit in SIM_LAYER_UNITS.items()},
}

OUT_DIR = ".perfbench_out"


def tail_mean(samples: list, share: float = 0.01) -> float:
    """Mean of the slowest ``share`` of ``samples`` (at least one).

    Simulated latencies pile up on a few exact values (the page-cache
    hit cost, one device access), so a percentile such as p99 lands on
    the same value for every seed and shows nothing; the mean of the
    tail beyond it moves with every sample in it.
    """
    count = max(1, math.ceil(len(samples) * share))
    return statistics.fmean(heapq.nlargest(count, samples))


def simulated_e2e(first) -> dict[str, float]:
    out = {}
    for short, run in first.runs.items():
        out[f"{short}_kops"] = run.ops / run.duration_us * 1e3
        out[f"{short}_mean_us"] = statistics.fmean(run.latencies_us)
        out[f"{short}_tail_us"] = tail_mean(run.latencies_us)
    return out


def simulated_layers(first) -> dict[str, float]:
    return {f"{short}.{name}": value
            for short, run in first.runs.items()
            for name, value in run.layer_metrics().items()}


def measure(workload, seconds: float, trace: bool, started: float,
            roots: dict[str, str]) -> dict:
    """Run rounds of ``workload`` for ``seconds``; return the result
    document.  ``started`` is the host time the process began."""
    walls: list[float] = []
    reference_s: list[list[float]] = []
    ticker = reference.Ticker()
    traced_walls: list[float] = []
    profiles: list[dict] = []
    errors: list[str] = []
    first = None
    setup_s = None
    rounds = 0
    begin = time.perf_counter()
    while True:
        passes = [None, cProfile.Profile()] if trace else [None]
        for profiler in passes:
            clock = PhaseClock(profiler, None if profiler else ticker)
            result = workload.run_round(clock)
            rounds += 1
            if setup_s is None:
                setup_s = clock.first_start - started
            if first is None:
                first = result
                errors += result.errors
            elif result.fingerprint() != first.fingerprint():
                errors.append(
                    f"round {rounds} simulated different results from "
                    "round 1" + (" (profiled)" if profiler else ""))
            if profiler is None:
                walls.append(clock.wall)
                reference_s.append(clock.reference_s)
            else:
                traced_walls.append(clock.wall)
                profiles.append(layers.aggregate(profiler, roots))
        if time.perf_counter() - begin >= seconds:
            break

    attempted = rounds * sum(run.ops for run in first.runs.values())
    failed = rounds * sum(run.failed for run in first.runs.values())
    warm = slice(1, None) if len(walls) >= 3 else slice(None)
    # Means, not medians: the host slows down in bursts, and the round
    # times and the slice times must average over the same bursts for
    # their ratio to cancel them.
    wall = statistics.fmean(walls[warm])
    slice_s = statistics.fmean(t for ts in reference_s[warm] for t in ts)
    if trace:
        events = sum(run.events for run in first.runs.values())
        metrics = {name: statistics.median(p[name] for p in profiles)
                   for name in profiles[0]}
        metrics.update({
            "engine.events": events,
            "engine.events_per_s": events / wall,
            "trace.overhead_x": statistics.fmean(traced_walls) / wall,
            "host.wall_s": wall,
            "host.reference_s": slice_s,
        })
        metrics.update(simulated_layers(first))
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": setup_s,
            "host_x": wall / slice_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics.update(simulated_e2e(first))
        units = E2E_UNITS
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "errors": errors,
        "rounds": rounds,
        "walls": walls,
        "reference_s": reference_s,
        "traced_walls": traced_walls,
    }


def save(doc: dict, root: str, workload: str, seed: int,
         trace: bool) -> None:
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{workload}-seed{seed}{'-trace' if trace else ''}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def main(args, started: float, root: str) -> int:
    roots = {os.path.join(root, "src"): "",
             os.path.join(root, "perfbench"): "perfbench"}
    doc = measure(WORKLOADS[args.workload](args.seed), args.seconds,
                  bool(args.trace), started, roots)
    save(doc, root, args.workload, args.seed, bool(args.trace))
    for error in doc["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({key: doc[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if doc["correct"] else 1
