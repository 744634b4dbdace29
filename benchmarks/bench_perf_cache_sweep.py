"""Perf benchmark: per-count oracle replay vs the Figure 9 sweep.

The dictionary **oracle** replays the trace through per-block Python
dicts once *per buffer count*
(:func:`~repro.caching.io_node.simulate_io_node_caches`) — definitionally
correct for any policy, tens of thousands of events per second.
:func:`~repro.caching.io_node.sweep_buffer_counts` computes an LRU line
from one **stack-distance** pass that pre-sorts per-node depth profiles
and reads every capacity off by binary search.  This benchmark times
both on the same LRU sweep at two trace scales, checks the acceptance
contract (bit-for-bit equal curves, stackdist >= 5x the oracle sweep)
and records the trajectory in ``BENCH_cache_sweep.json``.

Methodology (also in docs/DEVELOPMENT.md): the request stream is
precomputed and shared, so only engine time is measured; the oracle
sweep is timed once (it is seconds long — timer noise is negligible);
the stackdist pass is timed as the best of three after one warmup run,
which discharges first-call allocator effects the same way a warm sweep
loop would.
"""

import time

import numpy as np
from conftest import emit_json, show

from repro.caching.io_node import (
    request_stream,
    simulate_io_node_caches,
    sweep_buffer_counts,
)
from repro.util.tables import format_table
from repro.workload import WorkloadGenerator, ames1993

#: the Figure 9 buffer-count grid
COUNTS = [50, 125, 250, 500, 1000, 2000, 4000]

#: the second, smaller scale (the first is the session bench trace)
SMALL_SCALE = 0.02

#: acceptance floor for the bench-trace stackdist speedup over the oracle
MIN_SPEEDUP = 5.0


def _oracle(stream):
    return np.asarray([
        simulate_io_node_caches(
            None, count, n_io_nodes=10, policy="lru", stream=stream
        ).hit_rate
        for count in COUNTS
    ])


def _sweep(stream):
    return sweep_buffer_counts(
        None, COUNTS, n_io_nodes=10, policy="lru", stream=stream
    ).hit_rates


def _best_of(stream, rounds: int = 3):
    _sweep(stream)  # warmup
    best = float("inf")
    rates = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        rates = _sweep(stream)
        best = min(best, time.perf_counter() - t0)
    return best, rates


def _time_engines(frame) -> dict:
    stream = request_stream(frame)
    n_events = int(len(stream[0]))

    t0 = time.perf_counter()
    oracle = _oracle(stream)
    oracle_s = time.perf_counter() - t0

    stack_s, stackdist = _best_of(stream)

    assert (stackdist == oracle).all(), (
        "stack-distance curve must equal the oracle bit-for-bit"
    )
    return {
        "events": n_events,
        "oracle_seconds": oracle_s,
        "stackdist_seconds": stack_s,
        "speedup_stackdist": oracle_s / stack_s,
        "oracle_events_per_sec": n_events / oracle_s,
        "stackdist_events_per_sec": n_events / stack_s,
        "buffer_counts": COUNTS,
        "hit_rates": [float(r) for r in oracle],
    }


def test_perf_cache_sweep(benchmark, frame):
    small_frame = WorkloadGenerator(
        ames1993(SMALL_SCALE), seed=7
    ).run("direct").frame

    results = benchmark.pedantic(
        lambda: {"bench": _time_engines(frame), "small": _time_engines(small_frame)},
        rounds=1, iterations=1,
    )

    rows = [
        (
            name,
            r["events"],
            f"{r['oracle_seconds']:.2f}",
            f"{r['stackdist_seconds']:.3f}",
            f"{r['stackdist_events_per_sec']:,.0f}",
            f"{r['speedup_stackdist']:.0f}x",
        )
        for name, r in results.items()
    ]
    show(
        "Figure 9 LRU sweep: per-count oracle vs stack distances",
        format_table(
            ["trace", "events", "oracle s", "stackdist s",
             "stackdist ev/s", "gain"],
            rows,
        ),
    )
    emit_json("cache_sweep", results)

    # one stackdist pass must beat the whole oracle sweep by >= 5x on
    # the bench trace (the smaller trace has proportionally more fixed
    # overhead, so it only needs to win)
    assert results["bench"]["speedup_stackdist"] >= MIN_SPEEDUP
    assert results["small"]["speedup_stackdist"] > 1.0
