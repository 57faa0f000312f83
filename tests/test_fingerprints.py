"""Pinned behaviour of the quick presets whose code paths the demand
read, fill and write paths share.

Each pin is the total number of engine events every simulator the
preset built dispatched, plus the sha256 of its results serialized to
canonical JSON.  A change that moves either number changed simulated
behaviour; the failure names the preset.  The fig5 pin lives in
``tests/test_adaptive.py``.

* ``resilience`` drives partial fills under faults (``_settle_chunks``);
* ``adaptive`` drives QoS feedback and the adaptive admission gate;
* ``fig9a`` drives LSM puts, i.e. the write path and writeback.

Regenerating a pin is a deliberate act: run the preset, check why it
moved, and paste the new numbers here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.cli import EXPERIMENTS, QUICK_ARGS
from repro.sim.engine import Simulator

PINS = {
    "resilience": (27_088, "fe9a74bab6841728ca6c0abff742516b"
                           "9675d524e469826ceaa11583cdb676d0"),
    "adaptive": (23_559, "8707005b2b5e3f7303ba9102fc018296"
                         "8de79f8b787c286c7c8fffda14dfb358"),
    "fig9a": (10_235, "e50bcff9f8b02afd18b50174dd5e8af2"
                      "0e92450a500f94a0ebc8a406f5f28e50"),
}


def _plain(obj):
    """JSON-ready copy of a preset's results (dataclasses flattened)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float):
        return repr(obj)
    return obj


def fingerprint(name: str, monkeypatch) -> tuple[int, str]:
    """(events dispatched, sha256 of results) for one quick preset."""
    sims: list[Simulator] = []
    init = Simulator.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    monkeypatch.setattr(Simulator, "__init__", tracking_init)
    results, _report = EXPERIMENTS[name](**QUICK_ARGS[name])
    monkeypatch.setattr(Simulator, "__init__", init)
    events = sum(sim.events_processed for sim in sims)
    blob = json.dumps(_plain(results), sort_keys=True).encode()
    return events, hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_quick_preset_pinned(name, monkeypatch):
    events, digest = fingerprint(name, monkeypatch)
    want_events, want_digest = PINS[name]
    assert (events, digest) == (want_events, want_digest), (
        f"quick preset {name!r} drifted: {events} events, sha256 "
        f"{digest} (pinned {want_events}, {want_digest})")
