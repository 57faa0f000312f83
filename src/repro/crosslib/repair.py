"""Repair-scan prefetch priming: a queuing thread ahead of the scanner.

Modeled on xfs_repair's prefetch design (see SNIPPETS.md): repair
walks a known list of objects, so instead of *reacting* to the
scanner's reads, a dedicated queuing thread walks the same list a
bounded distance ahead and enqueues each object's block ranges to the
CROSS-LIB worker pool (:meth:`CrossLibRuntime.prime`).  The pieces map
onto xfs_repair's architecture:

* **queuing thread** — :class:`RepairPrefetcher`'s simulated process,
  gated by a condition variable so it never runs more than
  ``lookahead_files`` objects ahead of the scanner (xfs_repair's
  bounded prefetch queue);
* **I/O workers** — the existing CROSS-LIB worker pool, issuing
  ``readahead_info`` syscalls off the scan thread;
* **priority buffers** — metadata before data: each plan item lists
  its index-block runs ahead of its data-block runs, and the device
  itself serves the scanner's blocking reads ahead of priming I/O
  (prefetch priority), so priming can never delay the scan it serves.

The prefetcher is pure opportunism: everything it loads is re-checked
by the scanner's own reads, so correctness never depends on it — only
recovery *time* does (the cold-vs-primed comparison in the ``recovery``
experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.sim.sync import Condition

__all__ = ["RepairItem", "RepairPlan", "RepairPrefetcher"]


@dataclass(frozen=True)
class RepairItem:
    """One object the scan will visit: ordered block runs of a file.

    ``runs`` are ``(start_block, nblocks)`` in scan order — metadata
    (index) runs first, then data runs.
    """

    path: str
    runs: tuple[tuple[int, int], ...]
    label: str = ""


@dataclass
class RepairPlan:
    """The scan order, shared verbatim by scanner and prefetcher."""

    items: list[RepairItem] = field(default_factory=list)

    def add(self, path: str, runs: list[tuple[int, int]],
            label: str = "") -> None:
        runs = [(s, n) for s, n in runs if n > 0]
        if runs:
            self.items.append(RepairItem(path, tuple(runs), label))


class RepairPrefetcher:
    """The queuing thread: primes plan items ahead of the scanner."""

    def __init__(self, runtime, plan: RepairPlan, *,
                 lookahead_files: int = 3,
                 backlog_poll_us: float = 200.0):
        self.runtime = runtime
        self.plan = plan
        self.lookahead_files = max(1, lookahead_files)
        self.backlog_poll_us = backlog_poll_us
        self.primed_items = 0
        self.primed_blocks = 0
        self._scanned = 0           # items the scanner has finished
        self._kick = Condition(runtime.sim, "repair_prefetch_kick")
        self._proc = runtime.sim.process(self._loop(),
                                         name="repair_prefetch")

    def note_scanned(self, index: int) -> None:
        """The scanner finished plan item ``index``; advance the window."""
        if index + 1 > self._scanned:
            self._scanned = index + 1
        self._kick.notify_all()

    def _loop(self) -> Generator:
        runtime = self.runtime
        workers = runtime.workers
        # Keep the queue bounded by the pool, like xfs_repair sizing its
        # prefetch queue to the buffer cache: a deep backlog would only
        # go stale (and, under faults, feed the deadline watchdogs).
        backlog_cap = max(4, runtime.config.nr_workers * 4)
        for i, item in enumerate(self.plan.items):
            while i >= self._scanned + self.lookahead_files:
                yield self._kick.wait()
            for start, count in item.runs:
                while workers.backlog >= backlog_cap:
                    yield runtime.sim.timeout(self.backlog_poll_us)
                yield from runtime.prime(item.path, start, count)
                self.primed_blocks += count
            self.primed_items += 1

    def drain(self) -> Generator:
        """Wait for the queuing thread to finish its plan walk."""
        if self._proc.is_alive:
            yield self._proc

    def teardown(self) -> None:
        if self._proc.is_alive:
            self._proc.interrupt("repair teardown")
