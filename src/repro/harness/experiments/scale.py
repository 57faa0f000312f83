"""Scale experiment: how the CrossPrefetch advantage moves in a fleet.

Not a figure from the paper — the paper stops at one machine.  This
sweep answers the ROADMAP's production question: when N hosts share
remote NVMe backends and load arrives open-loop, what happens to the
CrossPrefetch-vs-OSonly throughput gap and to p99 latency?

Each sweep point ``(n_hosts, n_tenants)`` runs one
:func:`repro.cluster.fleet.run_fleet` per approach: the hosts share
``n_backends`` NVMe-oF devices, every (host, tenant) pair gets its own
seeded open-loop arrival stream, and latency is measured arrival to
completion — so backend queueing shows up in the tail, which is where
shared-backend contention bites.  Points fan out over the
``run_parallel`` fork pool (every task carries its audit flag
explicitly, so ``--jobs N`` output is byte-identical to serial), and
the merged matrix can be persisted via :mod:`repro.harness.results`.

The report prints per-point throughput, p99, the Cross/OS gap, and the
gap's shift versus the 1-host baseline at the same tenant count — the
number that says whether CrossPrefetch's advantage survives contention.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.cluster.fleet import FleetConfig, run_fleet
from repro.cluster.traffic import RequestMix, TrafficSpec
from repro.harness.metrics import ApproachMetrics
from repro.harness.parallel import run_parallel
from repro.harness.report import format_matrix
from repro.harness.results import save_results
from repro.harness.runner import audit_enabled

__all__ = ["run_scale"]

MB = 1 << 20

OSONLY = "OSonly"
CROSS = "CrossP[+predict+opt]"


def _point_key(n_hosts: int, n_tenants: int, n_backends: int) -> str:
    return f"{n_hosts}h.{n_tenants}t.{n_backends}b"


def _scale_task(item: dict) -> tuple:
    """One fleet run, executable in a fork-pool worker.

    The item carries every knob explicitly (including ``audit``) so the
    task never reads harness module globals — fork and serial runs see
    identical inputs.
    """
    traffic = TrafficSpec(
        rate_per_s=item["rate_per_s"],
        horizon_us=item["horizon_us"],
        arrivals=item["arrivals"],
        diurnal=item["diurnal"],
        mix=RequestMix(*item["mix"]),
    )
    config = FleetConfig(
        n_hosts=item["n_hosts"],
        n_backends=item["n_backends"],
        n_tenants=item["n_tenants"],
        approach=item["approach"],
        memory_bytes=item["memory_bytes"],
        file_bytes=item["file_bytes"],
        seed=item["seed"],
        audit=item["audit"],
        traffic=traffic,
    )
    out = run_fleet(config)
    metrics: ApproachMetrics = out["metrics"]
    metrics.extra["fingerprint"] = out["fingerprint"]
    metrics.extra["host_counters"] = out["counters"]
    return item["key"], item["approach"], metrics


def run_scale(hosts: Sequence[int] = (1, 2, 4),
              tenant_counts: Sequence[int] = (1, 4),
              backends: int = 1,
              approaches: Sequence[str] = (OSONLY, CROSS),
              seed: int = 0,
              rate_per_s: float = 2_000.0,
              horizon_us: float = 400_000.0,
              file_mb: int = 8,
              memory_mb: Optional[int] = None,
              arrivals: str = "poisson",
              diurnal: Sequence[float] = (),
              mix: tuple = (0.35, 0.45, 0.2),
              audit: bool = False,
              jobs: int = 1,
              out: Optional[str] = None
              ) -> tuple[dict, str]:
    """Sweep host count × tenant count over shared backends.

    Returns ``(results, report)`` where ``results`` maps
    ``"{hosts}h.{tenants}t.{backends}b"`` to per-approach metrics.
    ``audit`` (or an ambient ``auditing()`` block, e.g. ``repro
    check``) attaches the fleet-wide invariant auditor to every run.
    With ``out`` set, the merged matrix is persisted via
    :func:`repro.harness.results.save_results`.
    """
    audit = bool(audit or audit_enabled())
    items = []
    for n_tenants in tenant_counts:
        for n_hosts in hosts:
            for approach in approaches:
                items.append({
                    "key": _point_key(n_hosts, n_tenants, backends),
                    "n_hosts": n_hosts,
                    "n_tenants": n_tenants,
                    "n_backends": backends,
                    "approach": approach,
                    "seed": seed,
                    "audit": audit,
                    "rate_per_s": rate_per_s,
                    "horizon_us": horizon_us,
                    "file_bytes": file_mb * MB,
                    "memory_bytes":
                        memory_mb * MB if memory_mb else None,
                    "arrivals": arrivals,
                    "diurnal": tuple(diurnal),
                    "mix": tuple(mix),
                })
    outcomes = run_parallel(_scale_task, items, jobs=jobs)

    results: dict[str, dict[str, ApproachMetrics]] = {}
    for key, approach, metrics in outcomes:
        results.setdefault(key, {})[approach] = metrics
    if out:
        save_results(results, out, experiment="scale")

    # -- report ------------------------------------------------------------
    tput: dict[str, dict[str, float]] = {}
    p50: dict[str, dict[str, float]] = {}
    p99: dict[str, dict[str, float]] = {}
    gaps: dict[str, dict[str, float]] = {}
    base_approach = approaches[0]
    for key, per in results.items():
        tput[key] = {a: per[a].throughput_mbps for a in approaches}
        p50[key] = {a: per[a].p50_us for a in approaches}
        p99[key] = {a: per[a].p99_us for a in approaches}
        base = per[base_approach].throughput_mbps
        row: dict[str, float] = {}
        for a in approaches[1:]:
            row[f"{a}/x"] = per[a].throughput_mbps / base if base else 0.0
        base_p99 = per[base_approach].p99_us
        for a in approaches[1:]:
            row[f"{a}/p99x"] = per[a].p99_us / base_p99 \
                if base_p99 else 0.0
        gaps[key] = row

    shift_lines = []
    for n_tenants in tenant_counts:
        ref_key = _point_key(min(hosts), n_tenants, backends)
        ref = gaps.get(ref_key, {})
        for n_hosts in hosts:
            if n_hosts == min(hosts):
                continue
            key = _point_key(n_hosts, n_tenants, backends)
            for a in approaches[1:]:
                for suffix, label in (("/x", "throughput"),
                                      ("/p99x", "p99")):
                    col = a + suffix
                    if col in ref and col in gaps.get(key, {}):
                        delta = gaps[key][col] - ref[col]
                        shift_lines.append(
                            f"  {key}: {a} {label} gap "
                            f"{gaps[key][col]:.2f}x "
                            f"({delta:+.2f} vs {ref_key}'s "
                            f"{ref[col]:.2f}x)")

    title = (f"hosts={tuple(hosts)}, tenants={tuple(tenant_counts)}, "
             f"backends={backends}, rate={rate_per_s:g}/s, "
             f"horizon={horizon_us / 1e3:g}ms, seed={seed}"
             + (", audited" if audit else ""))
    lines = [
        format_matrix(f"Scale — fleet throughput (MB/s) ({title})",
                      tput, xlabel="approach ->"),
        format_matrix(f"Scale — open-loop p50 latency (us, arrival to "
                      f"completion) ({title})", p50,
                      xlabel="approach ->", fmt="{:>12.0f}"),
        format_matrix(f"Scale — open-loop p99 latency (us, arrival to "
                      f"completion) ({title})", p99,
                      xlabel="approach ->", fmt="{:>12.0f}"),
        format_matrix(f"Scale — gap vs {base_approach} (throughput x, "
                      f"p99 x) ({title})", gaps,
                      xlabel="ratio ->", fmt="{:>12.2f}"),
    ]
    if shift_lines:
        lines.append(
            "contention shift of the CrossPrefetch gap vs the "
            f"{min(hosts)}-host baseline:\n" + "\n".join(shift_lines))
    return results, "\n\n".join(lines)
