"""Perf benchmark: the drift engine's emission rate and equilibrium.

The drift engine ages a bounded namespace with randomized op churn
(:mod:`repro.workload.drift`); unlike the synthetic engine its cost is
dominated by the per-op Python loop, so its throughput is the number to
watch.  This benchmark generates one moderately long drift trace,
records events/sec and the steady-state live-file population in
``BENCH_drift.json``, and enforces one floor: the final population must
sit near the mix's predicted ``c/(c+d)`` equilibrium — a drifting
equilibrium means the model, not the machine, regressed.

Methodology: each timing is a fresh end-to-end run (best of three) so
RNG state can never leak between timings; the population check uses
the tail mean of :func:`~repro.workload.drift.population_curve` to
smooth binomial noise.
"""

import os
import time

from conftest import emit_json, show

from repro.util.tables import format_table
from repro.workload import DriftConfig, WorkloadGenerator, drift_scenario, population_curve

#: traced-period scale (fraction of 156 h); ~0.02 -> ~3 h of churn
SCALE = float(os.environ.get("REPRO_BENCH_DRIFT_SCALE", "0.02"))

SEED = 7

#: equilibrium tolerance: tail-mean population within this relative
#: band of tenants * files_per_tenant * c/(c+d)
EQUILIBRIUM_TOLERANCE = 0.20


def _best_of(rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = WorkloadGenerator(drift_scenario(SCALE), seed=SEED).run("direct")
        best = min(best, time.perf_counter() - t0)
    return best, result


def _time_all() -> dict:
    serial_s, serial = _best_of()

    cfg = DriftConfig()
    _, pop = population_curve(serial.frame)
    tail = pop[len(pop) // 2:]
    target = (
        cfg.tenants * cfg.files_per_tenant
        * cfg.mix.steady_state_live_fraction
    )

    n = int(serial.frame.n_events)
    return {
        "scale": SCALE,
        "events": n,
        "cpu_count": os.cpu_count(),
        "serial_seconds": serial_s,
        "events_per_sec": n / serial_s,
        "steady_state_files": float(tail.mean()),
        "steady_state_target": target,
        "final_files": int(pop[-1]),
        "namespace_slots": cfg.tenants * cfg.files_per_tenant,
    }


def test_perf_drift(benchmark):
    results = benchmark.pedantic(_time_all, rounds=1, iterations=1)

    rows = [
        ("serial", f"{results['serial_seconds']:.2f}",
         f"{results['events_per_sec']:,.0f}"),
    ]
    show(
        f"Drift engine, drift_scenario({SCALE}) seed {SEED} "
        f"({results['events']:,} events; steady state "
        f"{results['steady_state_files']:.0f}/"
        f"{results['namespace_slots']} live files, "
        f"target {results['steady_state_target']:.0f})",
        format_table(["run", "seconds", "events/s"], rows),
    )
    emit_json("drift", results)

    target = results["steady_state_target"]
    assert abs(results["steady_state_files"] - target) <= (
        EQUILIBRIUM_TOLERANCE * target
    ), "drift population drifted away from the c/(c+d) equilibrium"
