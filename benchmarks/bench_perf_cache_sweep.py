"""Perf benchmark: per-count oracle replay vs the Figure 9 sweep.

The dictionary **oracle** replays the trace through per-block Python
dicts once *per buffer count*
(:func:`~repro.caching.io_node.replay_io_node_caches`) — definitionally
correct for any policy, tens of thousands of events per second.
:func:`~repro.caching.io_node.sweep_buffer_counts` computes an LRU line
from one **stack-distance** pass that pre-sorts per-node depth profiles
and reads every capacity off by binary search, and a FIFO line from an
integer-keyed replay (one list-indexed loop per count over dense block
ids, no queue).  This benchmark times both lines against the oracle at
two trace scales, checks the acceptance contract (bit-for-bit equal
curves, stackdist >= 8x and FIFO >= 3x the oracle sweep on the bench
trace) and records the trajectory in ``BENCH_cache_sweep.json``.

Methodology (also in docs/DEVELOPMENT.md): the request stream is
precomputed and shared, so only engine time is measured; each oracle
sweep is timed as the median of three runs, whose seconds the record
keeps (a run is seconds long, but a shared host's load swings one run by
more than the CI gate's threshold); each sweep is timed as the best of
three after one warmup run, which discharges first-call allocator
effects the same way a warm sweep loop would.
"""

import statistics
import time

import numpy as np
from conftest import emit_json, show

from repro.caching.io_node import (
    replay_io_node_caches,
    request_stream,
    sweep_buffer_counts,
)
from repro.util.tables import format_table
from repro.workload import WorkloadGenerator, ames1993

#: the Figure 9 buffer-count grid
COUNTS = [50, 125, 250, 500, 1000, 2000, 4000]

#: the second, smaller scale (the first is the session bench trace)
SMALL_SCALE = 0.02

#: acceptance floor for the bench-trace stackdist speedup over the oracle
MIN_SPEEDUP = 8.0

#: acceptance floor for the bench-trace FIFO sweep speedup over the oracle
MIN_FIFO_SPEEDUP = 3.0


def _oracle(stream, policy, rounds: int = 3):
    """The line from the per-count oracle, the median seconds of
    ``rounds`` runs, and each run's seconds."""
    runs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        rates = np.asarray([
            replay_io_node_caches(
                None, count, n_io_nodes=10, policy=policy, stream=stream
            ).hit_rate
            for count in COUNTS
        ])
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs), runs, rates


def _best_of(stream, policy, rounds: int = 3):
    """The line from ``sweep_buffer_counts``, and its best seconds of
    ``rounds`` after one warmup run."""
    def sweep():
        return sweep_buffer_counts(
            None, COUNTS, n_io_nodes=10, policy=policy, stream=stream
        ).hit_rates

    sweep()  # warmup
    best = float("inf")
    rates = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        rates = sweep()
        best = min(best, time.perf_counter() - t0)
    return best, rates


def _time_engines(frame) -> dict:
    stream = request_stream(frame)
    n_events = int(len(stream[0]))

    oracle_s, oracle_runs, oracle = _oracle(stream, "lru")
    stack_s, stackdist = _best_of(stream, "lru")
    fifo_oracle_s, fifo_oracle_runs, fifo_oracle = _oracle(stream, "fifo")
    fifo_s, fifo = _best_of(stream, "fifo")

    assert (stackdist == oracle).all(), (
        "stack-distance curve must equal the oracle bit-for-bit"
    )
    assert (fifo == fifo_oracle).all(), (
        "FIFO sweep must equal the oracle bit-for-bit"
    )
    return {
        "events": n_events,
        "oracle_seconds": oracle_s,
        "oracle_run_seconds": oracle_runs,
        "stackdist_seconds": stack_s,
        "speedup_stackdist": oracle_s / stack_s,
        "oracle_events_per_sec": n_events / oracle_s,
        "stackdist_events_per_sec": n_events / stack_s,
        "fifo_oracle_seconds": fifo_oracle_s,
        "fifo_oracle_run_seconds": fifo_oracle_runs,
        "fifo_seconds": fifo_s,
        "speedup_fifo": fifo_oracle_s / fifo_s,
        "fifo_events_per_sec": n_events / fifo_s,
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
        row
        for name, r in results.items()
        for row in (
            (name, "lru", r["events"], f"{r['oracle_seconds']:.2f}",
             f"{r['stackdist_seconds']:.3f}",
             f"{r['stackdist_events_per_sec']:,.0f}",
             f"{r['speedup_stackdist']:.1f}x"),
            (name, "fifo", r["events"], f"{r['fifo_oracle_seconds']:.2f}",
             f"{r['fifo_seconds']:.3f}",
             f"{r['fifo_events_per_sec']:,.0f}",
             f"{r['speedup_fifo']:.1f}x"),
        )
    ]
    show(
        "Figure 9 sweeps: per-count oracle vs stack distances (LRU) and "
        "the dense-key replay (FIFO)",
        format_table(
            ["trace", "line", "events", "oracle s", "sweep s",
             "sweep ev/s", "gain"],
            rows,
        ),
    )
    emit_json("cache_sweep", results)

    # each sweep must beat its whole oracle sweep on the bench trace by
    # its floor (the smaller trace has proportionally more fixed
    # overhead, so there it only needs to win)
    assert results["bench"]["speedup_stackdist"] >= MIN_SPEEDUP
    assert results["small"]["speedup_stackdist"] > 1.0
    assert results["bench"]["speedup_fifo"] >= MIN_FIFO_SPEEDUP
    assert results["small"]["speedup_fifo"] > 1.0
