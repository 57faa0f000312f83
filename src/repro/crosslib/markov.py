"""A Lynx-style Markov region predictor (optional CROSS-LIB predictor).

The paper's future work calls for "sophisticated domain-specific
predictors"; its related work discusses Lynx (Laga et al., NVMSA '16),
which captures *random-looking but repeating* access sequences with a
Markov chain.  This module provides such a predictor behind the same
observe/plan interface as the default n-bit counter, selectable through
``CrossLibConfig.predictor_kind``:

* the file is divided into fixed-size *regions*;
* a first-order transition table counts region follow-ups;
* when the current region has a sufficiently confident successor, the
  predictor plans a prefetch of that successor region.

A hybrid mode layers it under the counter predictor: sequential runs use
the counter's windows, and on pattern breaks the Markov table gets a
chance to predict the jump target.

Both predictors expose the same surface the adaptive policy layer
shapes (:mod:`repro.crosslib.adaptive`, ``docs/prefetching.md``):
every plan they emit still flows through ``AdaptivePolicy.gate_plan``
when the learned layer is attached, so per-class clamps and the
perceptron admission gate apply regardless of ``predictor_kind``.

Invariants:

* transition counts only grow, and only by observed region follow-ups
  — a prediction never mutates the table;
* a successor is planned only when the current region has at least
  ``markov_min_samples`` observed follow-ups and the top successor
  holds at least the ``markov_confidence`` fraction of them;
* planned windows never cross a region boundary or the end of file.

Determinism/threading: pure table arithmetic — no simulation events,
no randomness, no locks.  Identical observation streams yield
identical transition tables and plans; iteration happens over
insertion-ordered dicts, so tie-breaks are deterministic too.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Optional

from repro.crosslib.config import CrossLibConfig
from repro.crosslib.predictor import (
    PatternPredictor,
    PatternState,
    PrefetchPlan,
)

__all__ = ["HybridPredictor", "MarkovPredictor"]


class MarkovPredictor:
    """First-order Markov chain over file regions."""

    def __init__(self, config: Optional[CrossLibConfig] = None):
        self.config = config or CrossLibConfig()
        self.region_blocks = self.config.markov_region_blocks
        self._transitions: dict[int, Counter] = defaultdict(Counter)
        self._last_region: Optional[int] = None
        self.observations = 0
        self.table_hits = 0

    # -- the predictor interface -------------------------------------------

    @property
    def state(self) -> PatternState:
        # Markov mode treats everything as (structured) random.
        return PatternState.RANDOM

    def observe(self, start: int, count: int) -> PatternState:
        self.observations += 1
        region = start // self.region_blocks
        if self._last_region is not None \
                and region != self._last_region:
            self._transitions[self._last_region][region] += 1
        self._last_region = region
        return self.state

    def plan(self, nblocks: int, relaxed: bool) -> Optional[PrefetchPlan]:
        if self._last_region is None:
            return None
        followers = self._transitions.get(self._last_region)
        if not followers:
            return None
        successor, hits = followers.most_common(1)[0]
        total = sum(followers.values())
        if total < self.config.markov_min_samples \
                or hits / total < self.config.markov_confidence:
            return None
        self.table_hits += 1
        start = successor * self.region_blocks
        count = min(self.region_blocks, max(0, nblocks - start))
        if count <= 0:
            return None
        return PrefetchPlan(start, count, backward=False)


class HybridPredictor:
    """Counter predictor for runs, Markov table for the jumps between
    them — the composition the Lynx comparison suggests."""

    def __init__(self, config: Optional[CrossLibConfig] = None):
        self.config = config or CrossLibConfig()
        self.counter = PatternPredictor(self.config)
        self.markov = MarkovPredictor(self.config)

    @property
    def state(self) -> PatternState:
        return self.counter.state

    @property
    def observations(self) -> int:
        return self.counter.observations

    def observe(self, start: int, count: int) -> PatternState:
        self.markov.observe(start, count)
        return self.counter.observe(start, count)

    def plan(self, nblocks: int, relaxed: bool) -> Optional[PrefetchPlan]:
        plan = self.counter.plan(nblocks, relaxed)
        if plan is not None:
            return plan
        # The run looks random to the counter: ask the Markov table
        # whether this "random" jump is actually a repeating sequence.
        return self.markov.plan(nblocks, relaxed)


def build_predictor(config: CrossLibConfig):
    """Predictor factory honouring ``config.predictor_kind``."""
    kind = config.predictor_kind
    if kind == "counter":
        return PatternPredictor(config)
    if kind == "markov":
        return MarkovPredictor(config)
    if kind == "hybrid":
        return HybridPredictor(config)
    raise ValueError(f"unknown predictor kind {kind!r}; "
                     "choose counter, markov, or hybrid")
