"""The CROSS-LIB access-pattern predictor (§4.6).

A per-file-descriptor n-bit saturating counter tracks how sequential the
FD's accesses are.  With the default 3 bits the counter ranges over the
paper's seven states, from HIGHLY_RANDOM (0) to DEFINITELY_SEQUENTIAL
(6).  Sequential and short-stride accesses (forward or backward)
increment it; nearby random accesses decrement it; far jumps decrement
it twice.  The prefetch window grows exponentially with the counter —
``base << counter`` blocks — and prefetching only engages once the
counter crosses the threshold state (PARTIALLY_RANDOM by default).

Once the counter saturates at either end the predictor enters a steady
state and skips bookkeeping for a while (the paper's prediction-damping
optimisation); this is a CPU-cost detail, so the model simply keeps the
counter pinned until contrary evidence arrives.

Beyond the counter, three refinements shape the window:

* **stride & direction detection** — constant short strides (forward
  or backward) count as sequential, and backward runs plan backward
  windows;
* **run-length clamping** — windows are clamped to the observed
  typical run length ("fine-grained prediction"), so a workload of
  short sequential bursts never over-fetches past where runs end;
* **relaxed scaling** (§4.7) — after a sustained sequential streak
  (``streak_threshold`` accesses, overridable per stream by the
  adaptive layer via ``streak_override`` — see
  :mod:`repro.crosslib.adaptive` and ``docs/prefetching.md``), relaxed
  windows scale a further ``opt_window_scale``×.

Invariants:

* the counter stays in ``[0, counter_max]`` (saturating at both ends);
* a plan is only produced at/above ``prefetch_threshold``
  (PARTIALLY_RANDOM), and ``plan.count`` never exceeds the relaxed or
  conservative window for the current counter, the run-length clamp,
  or the end of the file;
* ``streak`` resets to zero on any non-sequential observation, so
  relaxed scaling always reflects the *current* run.

Determinism/threading: pure per-FD state-machine arithmetic — no
simulation events, no randomness, no locks; all mutation happens
inline on the calling (simulated) thread's read path, so identical
observation streams yield identical plans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.crosslib.config import CrossLibConfig

__all__ = ["PatternPredictor", "PatternState", "PrefetchPlan"]


class PatternState(enum.IntEnum):
    """The seven predictor states of §4.6."""

    HIGHLY_RANDOM = 0
    RANDOM = 1
    PARTIALLY_RANDOM = 2
    LIKELY_SEQUENTIAL = 3
    SEQUENTIAL = 4
    MOSTLY_SEQUENTIAL = 5
    DEFINITELY_SEQUENTIAL = 6


# Counter-value -> state lookup; the enum's value->member call is a
# measurable cost on the per-read observe() path.
_STATES = tuple(PatternState(i) for i in range(7))


@dataclass
class PrefetchPlan:
    """A prefetch the predictor wants: block range plus direction."""

    start: int
    count: int
    backward: bool = False


class PatternPredictor:
    """Per-FD sequentiality counter with stride and direction tracking."""

    def __init__(self, config: Optional[CrossLibConfig] = None):
        self.config = config or CrossLibConfig()
        self.counter_max = self.config.counter_max
        self.counter = 0  # files open in "definitely random" (§4.6)
        self.last_start: Optional[int] = None
        self.last_end: Optional[int] = None
        self.last_gap: Optional[int] = None
        self.direction = 1  # +1 forward, -1 backward
        self.observations = 0
        # Run-length tracking: the window is clamped to a small multiple
        # of the typical sequential run, so a partially-random stream
        # ("likely sequential" state) gets burst-sized prefetches while a
        # long pure stream gets ever-larger ones.
        self.run_blocks = 0          # current contiguous/stride run
        self.avg_run_blocks = 0.0    # EMA of completed run lengths
        self.streak = 0              # consecutive sequential accesses
        self._prev_fwd_gap: Optional[int] = None  # for long-stride match
        # Adaptive-policy override of config.streak_threshold (None =
        # static threshold).  Set per read by the CROSS-LIB runtime
        # when repro.crosslib.adaptive classifies the stream.
        self.streak_override: Optional[int] = None

    @property
    def state(self) -> PatternState:
        c = self.counter
        return _STATES[c if c < 6 else 6]

    # -- observation ----------------------------------------------------------

    def observe(self, start: int, count: int) -> PatternState:
        """Feed one access (block start, block count); returns new state."""
        cfg = self.config
        self.observations += 1
        if self.last_end is None:
            # First access: sequential files almost always start at 0.
            delta = 1 if start == 0 else 0
            self.direction = 1
        else:
            fwd_gap = start - self.last_end
            bwd_gap = self.last_start - (start + count)
            if fwd_gap == 0 or (start > self.last_start
                                and start < self.last_end
                                and start + count >= self.last_end):
                # Contiguous, or an overlapping forward extension
                # (unaligned I/O re-touching the previous tail block).
                delta = 1
                self.direction = 1
                self.last_gap = 0
            elif bwd_gap == 0 or (start + count < self.last_end
                                  and start + count > self.last_start
                                  and start <= self.last_start):
                delta = 1
                self.direction = -1
                self.last_gap = 0
            elif 0 < fwd_gap <= cfg.stride_blocks:
                delta = 1
                self.direction = 1
                self.last_gap = fwd_gap
            elif 0 < bwd_gap <= cfg.stride_blocks:
                delta = 1
                self.direction = -1
                self.last_gap = -bwd_gap
            elif fwd_gap > 0 and fwd_gap == self._prev_fwd_gap:
                # A consistent long forward stride is still predictable.
                delta = 1
                self.direction = 1
                self.last_gap = fwd_gap
            elif abs(fwd_gap) <= cfg.near_random_blocks:
                delta = -1
            else:
                delta = -2
            self._prev_fwd_gap = fwd_gap
        if delta > 0:
            self.streak += 1
            self.run_blocks += count + abs(self.last_gap or 0)
        else:
            self.streak = 0
            # Only meaningful runs feed the estimate; a stray one-block
            # access (e.g. an interleaved index read) must not poison it.
            if self.run_blocks >= self.config.base_prefetch_blocks:
                if self.avg_run_blocks <= 0:
                    self.avg_run_blocks = float(self.run_blocks)
                else:
                    self.avg_run_blocks = (0.75 * self.avg_run_blocks
                                           + 0.25 * self.run_blocks)
            self.run_blocks = count
        c = self.counter + delta
        if c > self.counter_max:
            c = self.counter_max
        elif c < 0:
            c = 0
        self.counter = c
        self.last_start = start
        self.last_end = start + count
        return _STATES[c if c < 6 else 6]

    # -- planning --------------------------------------------------------------

    def window_blocks(self, relaxed: bool) -> int:
        """Current prefetch window: base << counter (2^n growth).

        Relaxed (no-OS-limit) scaling only engages after a sustained
        sequential streak — "definitely sequential" needs evidence — and
        the window never exceeds a small multiple of the typical run
        length, so partially-random streams get burst-sized prefetches.
        """
        cfg = self.config
        if self.counter < cfg.prefetch_threshold:
            return 0
        window = cfg.base_prefetch_blocks << self.counter
        streak_needed = cfg.streak_threshold \
            if self.streak_override is None else self.streak_override
        if relaxed and self.streak >= streak_needed \
                and self.counter >= self.counter_max:
            window *= cfg.opt_window_scale
        avg = self.avg_run_blocks
        if avg > 0:
            # Fine-grained sizing: don't prefetch past where the typical
            # run would end.  A pure sequential stream never completes a
            # run, leaves avg at 0, and stays unclamped.
            if self.run_blocks < avg:
                remaining = int(avg) - self.run_blocks
                window = min(window, max(cfg.base_prefetch_blocks,
                                         remaining))
            elif self.run_blocks < 2 * avg:
                # Past the estimate but not absurdly so: small probes.
                window = min(window, cfg.base_prefetch_blocks * 4)
            # Far past the estimate: the run is clearly longer than the
            # history suggests — leave the counter window unclamped.
        return window

    def plan(self, nblocks: int, relaxed: bool) -> Optional[PrefetchPlan]:
        """Where to prefetch next, or None while the FD looks random."""
        window = self.window_blocks(relaxed)
        if window <= 0 or self.last_end is None:
            return None
        stride = self.last_gap or 0
        if self.direction >= 0:
            start = self.last_end + max(0, stride)
            count = min(window, max(0, nblocks - start))
            if count <= 0:
                return None
            return PrefetchPlan(start, count, backward=False)
        end = (self.last_start or 0) + min(0, stride)
        start = max(0, end - window)
        count = end - start
        if count <= 0:
            return None
        return PrefetchPlan(start, count, backward=True)
