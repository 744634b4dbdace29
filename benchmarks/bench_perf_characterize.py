"""Perf benchmark: legacy vs fused characterization.

The legacy analyzers (``tests/legacy_oracle.py``, the reference oracle)
re-sort the trace inside every family; the engine behind
``characterize`` (``repro.core.streaming``) walks the event stream once,
folding every family's state in a single pass with no index at all.
This benchmark times the two paths on the same traces at two scales,
checks the acceptance contract (byte-identical report text, >= 3x
end-to-end speedup on the bench trace), and records the trajectory in
``BENCH_characterize.json``.

Methodology (also in docs/DEVELOPMENT.md): the per-frame fold and the
``of_kind`` views cache on the frame, so every timed run gets a *fresh* frame built
from the same event arrays — each path pays its own sort/group/scan
costs and nothing leaks between paths.  Every path is timed as the best
of three.
"""

import time

from conftest import emit_json, show

from repro.core import characterize
from repro.trace.frame import TraceFrame
from repro.util.tables import format_table
from repro.workload import WorkloadGenerator, ames1993
from tests.legacy_oracle import characterize_legacy

#: the second, smaller scale (the first is the session bench trace)
SMALL_SCALE = 0.02

#: acceptance floor for the bench-trace end-to-end speedup
MIN_SPEEDUP = 3.0


def _fresh(frame) -> TraceFrame:
    """The same events with cold caches (no fold, no kind views)."""
    return TraceFrame(
        frame.events, jobs=frame.jobs, files=frame.files, header=frame.header
    )


def _best_of(run, frame, rounds: int = 3) -> tuple[float, str]:
    best = float("inf")
    text = ""
    for _ in range(rounds):
        f = _fresh(frame)
        t0 = time.perf_counter()
        report = run(f)
        best = min(best, time.perf_counter() - t0)
        text = report.render()
    return best, text


def _time_paths(frame) -> dict:
    legacy_s, legacy_text = _best_of(characterize_legacy, frame)
    fused_s, fused_text = _best_of(characterize, frame)

    assert fused_text == legacy_text, (
        "fused report must equal the legacy report byte-for-byte"
    )
    return {
        "events": int(frame.n_events),
        "legacy_seconds": legacy_s,
        "fused_seconds": fused_s,
        "speedup_fused": legacy_s / fused_s,
        "speedup_best": legacy_s / fused_s,
        "report_identical": True,
    }


def test_perf_characterize(benchmark, frame):
    small_frame = WorkloadGenerator(
        ames1993(SMALL_SCALE), seed=7
    ).run("direct").frame

    results = benchmark.pedantic(
        lambda: {"bench": _time_paths(frame), "small": _time_paths(small_frame)},
        rounds=1, iterations=1,
    )

    rows = [
        (
            name,
            r["events"],
            f"{r['legacy_seconds']:.3f}",
            f"{r['fused_seconds']:.3f}",
            f"{r['speedup_fused']:.1f}x",
        )
        for name, r in results.items()
    ]
    show(
        "characterize(): legacy vs fused one-pass",
        format_table(
            ["trace", "events", "legacy s", "fused s", "fused"], rows,
        ),
    )
    emit_json("characterize", results)

    # the fused engine must beat the legacy path by >= 3x end-to-end on
    # the bench trace (the smaller trace carries proportionally more
    # fixed overhead, so it only needs to win)
    assert results["bench"]["speedup_best"] >= MIN_SPEEDUP
    assert results["small"]["speedup_best"] > 1.0
