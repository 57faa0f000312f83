"""Correctness checks made apart from the program.

Every check is a pure function of plain numbers and returns a list of
error strings (empty when the result is right), so the tests can feed
each one a doctored result and see it rejected.  The expected values
come from the benchmark's own bookkeeping of the inputs it generated,
never from the counter under test.
"""

from __future__ import annotations

import math
from typing import Iterable

# Slack for float sums of simulated microseconds.
REL_EPS = 1e-9


def check_reads(label: str, *, reads: int, expected_reads: int,
                nbytes: int, io_size: int, pages: int,
                page_size: int) -> list[str]:
    """A closed-loop read workload delivered exactly what was asked for.

    ``reads`` is the number of preads issued (one latency sample each)
    and ``nbytes`` the bytes they returned.  Each read returns at most
    ``io_size`` bytes, so ``nbytes == reads * io_size`` holds only if
    every read returned its full length.  ``pages`` is hit + miss pages.
    """
    errors = []
    if reads != expected_reads:
        errors.append(f"{label}: {reads} reads issued, the generated "
                      f"offsets hold {expected_reads}")
    if nbytes != expected_reads * io_size:
        errors.append(f"{label}: {nbytes} bytes delivered, the generated "
                      f"offsets cover {expected_reads * io_size}")
    if nbytes != reads * io_size:
        errors.append(f"{label}: short read ({nbytes} bytes from {reads} "
                      f"reads of {io_size})")
    expected_pages = expected_reads * io_size // page_size
    if pages != expected_pages:
        errors.append(f"{label}: hit + miss pages {pages} != pages "
                      f"requested {expected_pages}")
    return errors


def check_same(label: str, values: dict[str, float]) -> list[str]:
    """Every approach reports the same value (bytes delivered)."""
    if len(set(values.values())) > 1:
        return [f"{label} differs between approaches: {values}"]
    return []


def check_device(label: str, *, read_bytes: float, write_bytes: float,
                 elapsed_us: float, read_bw: float, write_bw: float,
                 utilization: float) -> list[str]:
    """Device bytes per simulated second stay within the configured
    bandwidth (bytes/µs) and channel utilization is at most 1."""
    errors = []
    if elapsed_us <= 0:
        return [f"{label}: no simulated time elapsed"]
    if read_bytes > read_bw * elapsed_us * (1 + REL_EPS):
        errors.append(f"{label}: read {read_bytes / elapsed_us:.1f} B/us "
                      f"exceeds bandwidth {read_bw:.1f} B/us")
    if write_bytes > write_bw * elapsed_us * (1 + REL_EPS):
        errors.append(f"{label}: wrote {write_bytes / elapsed_us:.1f} "
                      f"B/us exceeds bandwidth {write_bw:.1f} B/us")
    if not 0 <= utilization <= 1 + REL_EPS:
        errors.append(f"{label}: utilization {utilization:.4f} not in "
                      "[0, 1]")
    return errors


def check_latencies(label: str, latencies: Iterable[float],
                    expected: int) -> list[str]:
    """One latency sample per operation, every one above zero."""
    latencies = list(latencies)
    errors = []
    if len(latencies) != expected:
        errors.append(f"{label}: {len(latencies)} latency samples for "
                      f"{expected} operations")
    bad = sum(1 for x in latencies if not x > 0)
    if bad:
        errors.append(f"{label}: {bad} operations with latency <= 0")
    return errors


def check_qos(label: str, admitted: dict[str, int],
              prefetch_blocks: float) -> list[str]:
    """The per-tenant admitted prefetch blocks sum to the registry's
    ``cross.prefetch_blocks``."""
    total = sum(admitted.values())
    if total != prefetch_blocks:
        return [f"{label}: QoS tenants admitted {total} blocks "
                f"{admitted}, the registry counted {prefetch_blocks:g}"]
    return []


def check_faults(label: str, injected: int) -> list[str]:
    if injected < 1:
        return [f"{label}: the fault preset injected no fault"]
    return []


def check_kv(label: str, *, gets: int, missing: int, puts: int,
             wal_bytes: int, record_bytes: int) -> list[str]:
    """Every get of a populated or written key was found, and the WAL
    holds one record per put."""
    errors = []
    if missing:
        errors.append(f"{label}: {missing} of {gets} gets did not find "
                      "their key")
    if wal_bytes != puts * record_bytes:
        errors.append(f"{label}: WAL is {wal_bytes} bytes, {puts} puts "
                      f"x {record_bytes} bytes = {puts * record_bytes}")
    return errors


def poisson_tolerance(rate_per_us: float, horizon_us: float,
                      mean_size: float, mean_sq_size: float,
                      sigmas: float = 5.0) -> tuple[float, float]:
    """Expected served bytes of a Poisson stream and its tolerance.

    Requests arrive at ``rate_per_us`` over ``horizon_us``; sizes are
    i.i.d. with the given first and second moments.  The total is a
    compound Poisson sum: mean ``λ E[X]``, variance ``λ E[X²]``.
    """
    lam = rate_per_us * horizon_us
    return lam * mean_size, sigmas * math.sqrt(lam * mean_sq_size)


def check_fleet(label: str, *, completed: int, generated: int,
                served_bytes: int, expected_bytes: float,
                tolerance: float) -> list[str]:
    errors = []
    if completed != generated:
        errors.append(f"{label}: {completed} requests completed, "
                      f"{generated} generated")
    if abs(served_bytes - expected_bytes) > tolerance:
        errors.append(f"{label}: served {served_bytes} bytes, expected "
                      f"{expected_bytes:.0f} +- {tolerance:.0f}")
    return errors
