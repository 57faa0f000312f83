"""Tests of the benchmark itself: its correctness checks reject doctored
results, and at a small size its simulated results repeat exactly.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import cProfile
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import checks, layers, reference
from perfbench.model import PhaseClock
from perfbench.runner import E2E_UNITS, PER_LAYER_UNITS, measure
from perfbench.workloads import WORKLOADS, Fleet, Kv, Microbench, Storm

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
ROOTS = {os.path.join(ROOT, "src"): "",
         os.path.join(ROOT, "perfbench"): "perfbench"}
MB = 1 << 20


class SmallMicrobench(Microbench):
    memory_bytes = 8 * MB


class SmallStorm(Storm):
    memory_bytes = 16 * MB


class SmallKv(Kv):
    memory_bytes = 4 * MB
    ops_per_thread = 300
    num_keys = 5_000


class SmallFleet(Fleet):
    horizon_us = 100_000.0


SMALL = (SmallMicrobench, SmallStorm, SmallKv, SmallFleet)


# -- each check rejects a doctored result -------------------------------------

READS = dict(reads=64, expected_reads=64, nbytes=64 * 16384, io_size=16384,
             pages=256, page_size=4096)


def test_reads_check_accepts_a_right_result():
    assert checks.check_reads("x", **READS) == []


def test_reads_check_rejects_a_wrong_byte_total():
    doctored = dict(READS, nbytes=READS["nbytes"] + 16384,
                    reads=READS["reads"] + 1)
    assert checks.check_reads("x", **doctored)


def test_reads_check_rejects_a_short_read():
    doctored = dict(READS, nbytes=READS["nbytes"] - 512)
    errors = checks.check_reads("x", **doctored)
    assert any("short read" in e for e in errors)


def test_reads_check_rejects_missing_pages():
    assert checks.check_reads("x", **dict(READS, pages=255))


def test_same_check_rejects_unequal_bytes():
    assert checks.check_same("bytes", {"os": 10, "cross": 10}) == []
    assert checks.check_same("bytes", {"os": 10, "cross": 9})


def test_latency_check_rejects_a_zero_latency():
    assert checks.check_latencies("x", [1.0, 2.5], 2) == []
    assert checks.check_latencies("x", [1.0, 0.0], 2)
    assert checks.check_latencies("x", [1.0], 2)


def test_qos_check_rejects_unequal_totals():
    assert checks.check_qos("x", {"a": 3, "b": 4}, 7.0) == []
    assert checks.check_qos("x", {"a": 3, "b": 4}, 8.0)


def test_kv_check_rejects_a_missing_key_and_a_short_wal():
    right = dict(gets=10, missing=0, puts=5, wal_bytes=5 * 1036,
                 record_bytes=1036)
    assert checks.check_kv("x", **right) == []
    assert checks.check_kv("x", **dict(right, missing=1))
    assert checks.check_kv("x", **dict(right, wal_bytes=4 * 1036))


def test_device_check_rejects_over_bandwidth_and_utilization():
    right = dict(read_bytes=1000.0, write_bytes=0.0, elapsed_us=10.0,
                 read_bw=100.0, write_bw=50.0, utilization=1.0)
    assert checks.check_device("x", **right) == []
    assert checks.check_device("x", **dict(right, read_bytes=1001.0))
    assert checks.check_device("x", **dict(right, write_bytes=501.0))
    assert checks.check_device("x", **dict(right, utilization=1.01))


def test_fleet_check_rejects_lost_requests_and_bytes():
    right = dict(completed=100, generated=100, served_bytes=1000,
                 expected_bytes=1010.0, tolerance=20.0)
    assert checks.check_fleet("x", **right) == []
    assert checks.check_fleet("x", **dict(right, completed=99))
    assert checks.check_fleet("x", **dict(right, served_bytes=980))


def test_faults_check_requires_an_injected_fault():
    assert checks.check_faults("x", 1) == []
    assert checks.check_faults("x", 0)


def test_poisson_tolerance_moments():
    mean, tol = checks.poisson_tolerance(2e-3, 1e6, 10.0, 100.0, sigmas=1)
    assert mean == pytest.approx(2e4)
    assert tol == pytest.approx((2e3 * 100.0) ** 0.5)


# -- layer attribution --------------------------------------------------------


def test_modules_map_to_layers():
    src = os.path.join(ROOT, "src")
    vfs = os.path.join(src, "repro", "os", "vfs.py")
    assert layers.module_of(vfs, ROOTS) == "repro.os.vfs"
    init = os.path.join(src, "repro", "crosslib", "__init__.py")
    assert layers.module_of(init, ROOTS) == "repro.crosslib"
    assert layers.layer_of("repro.os.vfs") == "vfs"
    assert layers.layer_of("repro.crosslib.adaptive") == "adaptive"
    assert layers.layer_of("repro.crosslib.runtime") == "crosslib"
    assert layers.layer_of("repro.workloads.lsm.db") == "lsm"
    assert layers.layer_of("repro.harness.runner") == layers.REST
    assert layers.layer_of("perfbench.workloads") == layers.REST
    assert layers.layer_of(None) == layers.OTHER


# -- the workloads at a small size --------------------------------------------


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_same_seed_repeats_and_tracing_changes_nothing(cls):
    first = cls(3).run_round(PhaseClock())
    assert first.errors == []
    again = cls(3).run_round(PhaseClock())
    traced = cls(3).run_round(PhaseClock(cProfile.Profile()))
    assert again.fingerprint() == first.fingerprint()
    assert traced.fingerprint() == first.fingerprint()
    for run in first.runs.values():
        assert run.ops > 0 and run.failed == 0


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_another_seed_changes_the_operations(cls):
    one = cls(3).run_round(PhaseClock())
    two = cls(4).run_round(PhaseClock())
    assert one.fingerprint() != two.fingerprint()


def test_kv_inputs_come_from_the_seed():
    assert SmallKv(3).plans == SmallKv(3).plans
    assert SmallKv(3).plans != SmallKv(4).plans


def test_storm_injects_faults_and_attaches_qos_and_adaptive():
    result = SmallStorm(3).run_round(PhaseClock())
    cross = result.runs["cross"].layer_metrics()
    assert cross["faults.injected"] >= 1
    assert cross["qos.admitted_blocks"] > 0
    assert cross["adaptive.issued_plans"] > 0


def test_reference_loop_repeats_its_work():
    one, two = reference.Loop(), reference.Loop()
    for loop in (one, two):
        loop.step(reference.SLICE_EVENTS)
    assert one.hits == two.hits > 0
    assert len(one.lru.pages) == reference.CAPACITY


def test_phase_clock_interleaves_reference_slices_and_removes_them():
    ticker = reference.Ticker()
    clock = PhaseClock(ticker=ticker)
    with clock.phase():
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * reference.INTERVAL_S:
            pass
        elapsed = time.perf_counter() - start
    assert len(clock.reference_s) >= 3
    assert clock.reference_s == ticker.slices
    assert clock.wall == pytest.approx(
        elapsed - sum(clock.reference_s[1:]), abs=0.01)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_measure_reports_every_metric():
    plain = measure(SmallMicrobench(1), 0, False, time.perf_counter(), ROOTS)
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == set(E2E_UNITS)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    traced = measure(SmallMicrobench(1), 0, True, time.perf_counter(), ROOTS)
    assert traced["correct"]
    assert set(traced["metrics"]) == set(PER_LAYER_UNITS)
    assert traced["metrics"]["engine.self_s"]["value"] > 0
    assert traced["metrics"]["trace.overhead_x"]["value"] > 1
    assert traced["metrics"]["host.reference_s"]["value"] > 0
    assert traced["attempted"] == 2 * plain["attempted"]


def test_every_workload_is_registered():
    from perfbench.run import WORKLOAD_NAMES

    assert set(WORKLOADS) == set(WORKLOAD_NAMES) \
        == {"microbench", "kv", "storm", "fleet"}


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == PER_LAYER_UNITS
