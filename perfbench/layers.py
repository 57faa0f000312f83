"""Host self time per simulator layer, from a profile of the traced run.

The traced run installs :class:`cProfile.Profile` (a C-level profile
hook) around each simulation phase, then folds every function's self
time and call count into the layer its module belongs to.  Generator
resumptions count as calls, as the profiler records them.
"""

from __future__ import annotations

import cProfile
import os
import pstats

# Module prefix -> layer; the longest matching prefix wins.
LAYER_PREFIXES = {
    "repro.sim.engine": "engine",
    "repro.sim.sync": "sync",
    "repro.os.vfs": "vfs",
    "repro.os.bitmap": "bitmap",
    "repro.os.pagecache": "pagecache",
    "repro.os.lru": "pagecache",
    "repro.os.memory": "pagecache",
    "repro.os.inode": "pagecache",
    "repro.os.readahead": "readahead",
    "repro.os.crossos": "readahead",
    "repro.storage": "device",
    "repro.crosslib.adaptive": "adaptive",
    "repro.crosslib": "crosslib",
    "repro.sim.faults": "faults",
    "repro.sim.qos": "qos",
    "repro.cluster": "cluster",
    "repro.workloads.lsm": "lsm",
    "repro.runtimes": "runtimes",
}
# Any other repro module and the benchmark's own driver.
REST = "rest"
# The standard library and builtins.
OTHER = "other"

LAYERS = tuple(dict.fromkeys(LAYER_PREFIXES.values())) + (REST, OTHER)


def module_of(filename: str, roots: dict[str, str]) -> str | None:
    """Dotted module name of ``filename`` under one of ``roots``
    (directory -> package prefix), or None outside them."""
    path = os.path.abspath(filename)
    for root, prefix in roots.items():
        if path.startswith(root + os.sep) and path.endswith(".py"):
            rel = path[len(root) + 1:-3].replace(os.sep, ".")
            if rel.endswith("__init__"):
                rel = rel[:-len("__init__")].rstrip(".")
            return ".".join(p for p in (prefix, rel) if p)
    return None


def layer_of(module: str | None) -> str:
    if module is None:
        return OTHER
    best = ""
    for prefix in LAYER_PREFIXES:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return LAYER_PREFIXES[best] if best else REST


def aggregate(profile: cProfile.Profile,
              roots: dict[str, str]) -> dict[str, float]:
    """Fold one profile into ``<layer>.self_s`` plus the two call
    counts the benchmark reports (``vfs.read_calls``, ``bitmap.calls``)."""
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out["vfs.read_calls"] = 0
    out["bitmap.calls"] = 0
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    modules: dict[str, str | None] = {}
    for (filename, _line, func), (_cc, ncalls, selftime, _ct, _callers) \
            in stats.items():
        if filename not in modules:
            modules[filename] = module_of(filename, roots)
        module = modules[filename]
        layer = layer_of(module)
        out[f"{layer}.self_s"] += selftime
        if layer == "bitmap":
            out["bitmap.calls"] += ncalls
        elif module == "repro.os.vfs" and func == "read":
            out["vfs.read_calls"] += ncalls
    return out
