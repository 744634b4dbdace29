"""Perf benchmark: the full-pipeline replayer against its step oracle.

The ``full`` pipeline replays every event the direct pipeline emits
through the simulated machine — instrumented CFS calls, trace records,
clocked collection — and is the slowest path in the repo.  The **step
replayer** (:class:`tests.replay_oracle.StepReplayer`) issues one
Python call per event — the reference oracle.  The **vectorized
replayer** (the one ``run("full")`` uses) batches per-event dispatch
and takes the zero-payload write fast path.

This benchmark times both end to end on one scenario, records them in
``BENCH_full_pipeline.json``, and enforces two floors: both replayers
write the same raw trace byte for byte, and the vectorized replayer
must not fall behind the step oracle.

Methodology: every configuration is a fresh end-to-end run (plan +
replay + postprocess), timed as the best of three so one noisy round
cannot sink the ratio.  Run it from the repository root
(``python -m pytest benchmarks/bench_perf_full_pipeline.py``) so the
oracle in ``tests/`` is importable.
"""

import os
import time

from conftest import emit_json, show

from repro.util.tables import format_table
from repro.workload import WorkloadGenerator, ames1993
from tests.replay_oracle import run_full_step

#: traced-period scale for the bench scenario (full pipeline is heavy,
#: so this is smaller than the session bench trace)
SCALE = float(os.environ.get("REPRO_BENCH_FULL_SCALE", "0.02"))

SEED = 7

#: the vectorized replayer must at least keep up with the step oracle
#: (it is ~1.3-2x faster; 0.9 absorbs timer noise on loaded hosts)
MIN_VECTOR_SPEEDUP = 0.9


def _run(engine="vector"):
    gen = WorkloadGenerator(ames1993(SCALE), seed=SEED)
    if engine == "step":
        return run_full_step(gen)
    return gen.run("full")


def _best_of(rounds=3, **kwargs):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = _run(**kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _time_all() -> tuple[dict, dict]:
    step_s, step = _best_of(engine="step")
    vector_s, vector = _best_of()

    assert step.raw.to_bytes() == vector.raw.to_bytes(), (
        "step and vector traces diverged"
    )

    n = int(vector.frame.n_events)
    seconds = {"step": step_s, "vector": vector_s}
    results = {
        "scale": SCALE,
        "events": n,
        "cpu_count": os.cpu_count(),
        **{f"{k}_seconds": v for k, v in seconds.items()},
        **{f"{k}_events_per_sec": n / v for k, v in seconds.items()},
        "speedup_vector": step_s / vector_s,
    }
    return results, seconds


def test_perf_full_pipeline(benchmark):
    results, seconds = benchmark.pedantic(_time_all, rounds=1, iterations=1)

    rows = [
        (
            name,
            f"{secs:.2f}",
            f"{results['events'] / secs:,.0f}",
            f"{results['step_seconds'] / secs:.2f}x",
        )
        for name, secs in seconds.items()
    ]
    show(
        f"Full-pipeline simulation, ames1993({SCALE}) seed {SEED} "
        f"({results['events']:,} events, {results['cpu_count']} cores)",
        format_table(["engine", "seconds", "events/s", "vs step"], rows),
    )
    emit_json("full_pipeline", results)

    assert results["speedup_vector"] >= MIN_VECTOR_SPEEDUP, (
        "vectorized replayer fell behind the step oracle"
    )
