"""Cluster subsystem tests: open-loop traffic, fleet determinism,
fleet audits, and the concurrent-writer contract of the results store.

The determinism tests pin the open-loop contract from
``repro.cluster.traffic``: every draw happens in the arrival generator
(deterministic order), so the same seed must give a byte-identical
arrival stream, identical per-host event counts across two runs, and
identical fingerprints whether the sweep runs serial or through the
``run_parallel`` fork pool.
"""

import random

import pytest

from repro.cluster import (
    ID_NAMESPACE,
    BurstArrivals,
    DiurnalSchedule,
    FleetConfig,
    Host,
    HostSpec,
    PoissonArrivals,
    RequestMix,
    TrafficSpec,
    arrival_stream,
    run_fleet,
    traffic_seed,
)
from repro.harness.configs import MachineConfig
from repro.harness.experiments.scale import run_scale
from repro.harness.metrics import ApproachMetrics
from repro.harness.parallel import run_parallel
from repro.harness.results import load_results, save_results
from repro.sim.stats import StatsRegistry

KB = 1 << 10
MB = 1 << 20

CROSS = "CrossP[+predict+opt]"

# Small enough to keep the fleet tests fast, busy enough to produce
# real queueing on the shared backend.
QUICK = TrafficSpec(rate_per_s=1_200.0, horizon_us=50_000.0)


def _quick_config(**overrides) -> FleetConfig:
    kwargs = dict(n_hosts=2, n_tenants=2, approach=CROSS,
                  file_bytes=2 * MB, seed=7, traffic=QUICK)
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


class TestTrafficStreams:
    def test_same_seed_byte_identical_stream(self):
        spec = TrafficSpec(rate_per_s=5_000.0, horizon_us=100_000.0)
        a = arrival_stream(spec, random.Random(11))
        b = arrival_stream(spec, random.Random(11))
        assert a == b
        assert a != arrival_stream(spec, random.Random(12))

    def test_poisson_rate_roughly_matches(self):
        spec = TrafficSpec(rate_per_s=10_000.0, horizon_us=1_000_000.0)
        arrivals = arrival_stream(spec, random.Random(3))
        # 10k expected; Poisson std-dev is 100, so ±10% is generous.
        assert 9_000 < len(arrivals) < 11_000
        assert arrivals == sorted(arrivals)
        assert all(0 < t < spec.horizon_us for t in arrivals)

    def test_burst_arrivals_deterministic(self):
        spec = TrafficSpec(arrivals="burst", burst=3,
                           burst_period_us=10_000.0,
                           horizon_us=35_000.0)
        arrivals = arrival_stream(spec, random.Random(0))
        assert arrivals == [10_000.0] * 3 + [20_000.0] * 3 \
            + [30_000.0] * 3

    def test_diurnal_ramp_modulates_rate(self):
        flat = TrafficSpec(rate_per_s=5_000.0, horizon_us=200_000.0)
        ramped = TrafficSpec(rate_per_s=5_000.0, horizon_us=200_000.0,
                             diurnal=(0.25, 4.0),
                             diurnal_period_us=200_000.0)
        arrivals = arrival_stream(ramped, random.Random(5))
        first = sum(1 for t in arrivals if t < 100_000.0)
        second = len(arrivals) - first
        # Second half runs 16x the first half's rate.
        assert second > 4 * first
        assert DiurnalSchedule((0.25, 4.0), 200_000.0) \
            .multiplier(150_000.0) == 4.0
        assert len(arrivals) != len(arrival_stream(flat,
                                                   random.Random(5)))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            DiurnalSchedule(())
        with pytest.raises(ValueError):
            DiurnalSchedule((1.0, -2.0))
        with pytest.raises(ValueError):
            DiurnalSchedule((1.0,), period_us=0.0)

    def test_mix_draw_and_validation(self):
        rng = random.Random(9)
        draws = [RequestMix(0.5, 0.3, 0.2).draw(rng)
                 for _ in range(2_000)]
        counts = {k: draws.count(k) for k in ("point", "scan", "hot")}
        assert counts["point"] > counts["scan"] > counts["hot"] > 0
        with pytest.raises(ValueError):
            RequestMix(-0.1, 0.5, 0.5)
        with pytest.raises(ValueError):
            RequestMix(0.0, 0.0, 0.0)

    def test_unknown_arrival_process_rejected(self):
        with pytest.raises(ValueError):
            TrafficSpec(arrivals="fractal").arrival_process()

    def test_traffic_seed_distinct_per_stream(self):
        seeds = {traffic_seed(42, host, tenant)
                 for host in range(8) for tenant in range(8)}
        assert len(seeds) == 64  # no collisions across the grid
        assert traffic_seed(42, 1, 2) == traffic_seed(42, 1, 2)

    def test_zero_rate_yields_no_arrivals(self):
        assert PoissonArrivals(0.0).stream(random.Random(1),
                                           1e6) == []
        assert BurstArrivals(0.0, 4).stream(random.Random(1),
                                            1e6) == []


class TestHost:
    def test_single_host_builds_and_teardown_idempotent(self):
        host = Host.single(MachineConfig.remote_nvmeof(), "OSonly")
        host.create_file("/t/a", 1 * MB)
        host.teardown()
        host.teardown()  # second call must be a no-op
        summary = host.summary()
        assert summary["host"] == "host0"
        assert summary["requests"] == 0

    def test_fleet_hosts_get_disjoint_inode_namespaces(self):
        from repro.sim.engine import Simulator
        sim = Simulator()
        machine = MachineConfig.remote_nvmeof()
        backend = machine.device_factory()(sim, StatsRegistry())
        hosts = [Host.in_fleet(HostSpec(host_id=h), machine,
                               sim=sim, backend=backend)
                 for h in range(2)]
        inodes = [host.create_file(f"/{host.name}/f", 1 * MB)
                  for host in hosts]
        assert inodes[0].id == 1
        assert inodes[1].id == 1 + ID_NAMESPACE
        assert hosts[0].kernel.sim is hosts[1].kernel.sim is sim
        assert hosts[0].kernel.device is hosts[1].kernel.device
        for host in hosts:
            host.teardown()
        sim.run()


class TestFleetDeterminism:
    def test_same_seed_same_fingerprint_and_host_rows(self):
        first = run_fleet(_quick_config())
        second = run_fleet(_quick_config())
        assert first["fingerprint"] == second["fingerprint"]
        assert first["hosts"] == second["hosts"]
        assert first["backends"] == second["backends"]
        assert first["metrics"].extra["sim_events"] \
            == second["metrics"].extra["sim_events"]

    def test_different_seed_differs(self):
        a = run_fleet(_quick_config(seed=7))
        b = run_fleet(_quick_config(seed=8))
        assert a["fingerprint"] != b["fingerprint"]

    def test_scale_sweep_jobs_parity(self):
        """--jobs 4 must be byte-identical to serial: same fingerprints,
        same per-host event counts, per sweep point and approach."""
        kwargs = dict(hosts=(1, 2), tenant_counts=(2,),
                      rate_per_s=800.0, horizon_us=30_000.0,
                      file_mb=2, seed=3)
        serial, _ = run_scale(jobs=1, **kwargs)
        forked, _ = run_scale(jobs=4, **kwargs)
        assert serial.keys() == forked.keys()
        for key, per in serial.items():
            for approach, metrics in per.items():
                other = forked[key][approach]
                assert metrics.extra["fingerprint"] \
                    == other.extra["fingerprint"], (key, approach)
                assert metrics.extra["sim_events"] \
                    == other.extra["sim_events"]
                assert metrics.latencies_us == other.latencies_us

    def test_scale_quick_returns_per_host_counters(self):
        """The scale quick preset carries each host's counter snapshot
        (plain dicts, so the fork pool can pickle them), and --jobs 2
        returns them byte-identical to serial."""
        import json
        import pickle

        from repro.cli import QUICK_ARGS

        serial, _ = run_scale(jobs=1, **QUICK_ARGS["scale"])
        forked, _ = run_scale(jobs=2, **QUICK_ARGS["scale"])

        def doc(results):
            return json.dumps(
                {key: {ap: [m.extra["fingerprint"],
                            m.extra["host_counters"]]
                       for ap, m in per.items()}
                 for key, per in results.items()}, sort_keys=True)

        assert doc(serial) == doc(forked)
        os_host = serial["2h.2t.1b"]["OSonly"].extra["host_counters"]
        assert set(os_host) == {"host0", "host1"}
        for counters in os_host.values():
            pickle.dumps(counters)
            assert all(type(v) is float for v in counters.values())
            assert counters["cache.evicted_pages"] > 0 \
                or counters["fill.os_ra_sync"] > 0

    def test_fleet_metrics_shape(self):
        out = run_fleet(_quick_config(n_hosts=2))
        metrics = out["metrics"]
        assert isinstance(metrics, ApproachMetrics)
        assert metrics.ops == sum(row["requests"]
                                  for row in out["hosts"])
        assert len(metrics.latencies_us) == metrics.ops > 0
        assert metrics.extra["n_hosts"] == 2
        # Open-loop latency includes queueing, so the tail must be
        # at least as slow as the median.
        assert metrics.p99_us >= metrics.p50_us > 0


class TestFleetAudit:
    @pytest.mark.parametrize("approach", ["OSonly", CROSS])
    def test_contended_fleet_audits_green(self, approach):
        out = run_fleet(_quick_config(approach=approach, audit=True))
        assert out["metrics"].extra["audited"] is True
        assert out["metrics"].ops > 0

    def test_multi_backend_audit_green(self):
        out = run_fleet(_quick_config(n_hosts=4, n_backends=2,
                                      audit=True))
        reads = [row["read_bytes"] for row in out["backends"]]
        assert len(reads) == 2 and all(r > 0 for r in reads)


def _hammer_save(item):
    """Fork-pool worker: save a distinct document to the shared path."""
    path, writer = item
    metrics = ApproachMetrics(approach=f"w{writer}", duration_us=1e6,
                              bytes_read=writer * MB)
    save_results({"cell": metrics}, path, experiment=f"writer{writer}")
    return writer


class TestAtomicResults:
    def test_parallel_writers_never_tear_the_file(self, tmp_path):
        """Hammer one results path from the run_parallel fork pool:
        whoever wins, the file must always parse as one complete
        document written by a single writer."""
        path = tmp_path / "shared.json"
        writers = list(range(16))
        done = run_parallel(_hammer_save,
                            [(str(path), w) for w in writers], jobs=8)
        assert sorted(done) == writers
        doc = load_results(path)
        winner = doc["experiment"]
        assert winner in {f"writer{w}" for w in writers}
        # The surviving document is self-consistent: its cell matches
        # the experiment tag of the writer that produced it.
        wid = int(winner.removeprefix("writer"))
        assert doc["cells"]["cell"]["approach"] == f"w{wid}"
        assert doc["cells"]["cell"]["bytes_read"] == wid * MB
        # No temp droppings left behind by any writer.
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_failed_write_cleans_up_temp(self, tmp_path):
        class Unserializable(ApproachMetrics):
            @property
            def throughput_mbps(self):  # type: ignore[override]
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            save_results({"x": Unserializable(approach="x")},
                         tmp_path / "r.json")
        assert list(tmp_path.iterdir()) == []
