"""Perf benchmark: out-of-core streaming vs full-frame characterization.

The chunked store exists so characterization RSS is bounded by the chunk
size, the accumulator's event budget and the trace's distinct keys, not
by the trace's length (the paper's ~5 GB of raw traces never fit the
original all-in-memory pipeline).  This benchmark writes one store, then
characterizes it twice in *separate child processes* — once materialized
as a full frame, once streamed chunk by chunk — and compares each child's
peak RSS.  Child isolation is the whole methodology: peak RSS is a
process-lifetime high-water mark, so the two paths can never share an
interpreter.  Each child reads ``VmHWM`` from ``/proc/self/status``
rather than ``getrusage``: ``ru_maxrss`` survives ``exec`` on Linux, so
a child forked from a large parent would inherit the parent's peak and
mask its own.

Acceptance: identical report text, streaming peak RSS <= 50% of the
full-frame peak, at comparable wall time.  ``REPRO_BENCH_STORE_SCALE``
sizes the trace (default 0.5 — over a million events, so the event data
dominates the interpreter's fixed footprint in both children).

Results land in ``BENCH_store.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import emit_json, show

import repro
from repro.util.tables import format_table
from repro.workload import WorkloadGenerator, ames1993

#: trace scale for the RSS comparison (bigger than the session bench
#: trace: the gap only shows once event data dwarfs the interpreter)
STORE_SCALE = float(os.environ.get("REPRO_BENCH_STORE_SCALE", "0.5"))

STORE_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))

#: events per chunk for the on-disk store: one decoded chunk is the
#: streaming path's transient working set, on top of the accumulator's
#: held state (bounded by ``repro.core.streaming._COLLAPSE_EVENTS``)
CHUNK_SIZE = 1 << 16

#: acceptance ceiling: streaming peak RSS as a fraction of full-frame
MAX_RSS_RATIO = 0.50

#: wall-time sanity bound: streaming must stay in the same ballpark
MAX_WALL_RATIO = 3.0

#: the child: characterize one store, print wall/RSS/report digest
_CHILD = """
import hashlib, json, sys, time

from repro.core import characterize
from repro.trace.store import TraceStore

def peak_rss_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB -> MB
    raise RuntimeError("no VmHWM in /proc/self/status")

mode, path = sys.argv[1], sys.argv[2]
t0 = time.perf_counter()
with TraceStore(path) as store:
    if mode == "full":
        report = characterize(store.frame())
    else:
        report = characterize(store)
wall = time.perf_counter() - t0
print(json.dumps({
    "wall_seconds": wall,
    "peak_rss_mb": peak_rss_mb(),
    "report_sha256": hashlib.sha256(report.render().encode()).hexdigest(),
}))
"""


def _run_child(mode: str, store_path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(store_path)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    )
    return json.loads(out.stdout)


def test_store_streaming_rss(benchmark, tmp_path):
    from repro.trace.store import TraceStore, write_store

    workload = WorkloadGenerator(ames1993(STORE_SCALE), seed=STORE_SEED).run(
        "direct"
    )
    store_path = tmp_path / "bench.store"
    write_store(workload.frame, store_path, chunk_size=CHUNK_SIZE)
    with TraceStore(store_path) as store:
        n_events = store.n_events
        stored_mb = store.compressed_bytes / 2**20
        raw_mb = store.uncompressed_bytes / 2**20
    del workload  # the children do the measured work, not this process

    results = benchmark.pedantic(
        lambda: {
            "full": _run_child("full", store_path),
            "streaming": _run_child("streaming", store_path),
        },
        rounds=1,
        iterations=1,
    )
    full, streaming = results["full"], results["streaming"]
    rss_ratio = streaming["peak_rss_mb"] / full["peak_rss_mb"]
    wall_ratio = streaming["wall_seconds"] / full["wall_seconds"]

    show(
        "characterize(): full-frame vs out-of-core streaming (child processes)",
        format_table(
            ["path", "peak RSS (MB)", "wall (s)"],
            [
                ("full frame", f"{full['peak_rss_mb']:.0f}",
                 f"{full['wall_seconds']:.2f}"),
                ("streaming", f"{streaming['peak_rss_mb']:.0f}",
                 f"{streaming['wall_seconds']:.2f}"),
                ("ratio", f"{rss_ratio:.2f}", f"{wall_ratio:.2f}"),
            ],
        )
        + f"\ntrace: {n_events} events, store {stored_mb:.1f} MB "
        f"({raw_mb:.1f} MB raw), chunk size {CHUNK_SIZE}",
    )
    emit_json(
        "store",
        {
            "events": n_events,
            "scale": STORE_SCALE,
            "chunk_size": CHUNK_SIZE,
            "store_mb": round(stored_mb, 2),
            "store_raw_mb": round(raw_mb, 2),
            "full_rss_mb": round(full["peak_rss_mb"], 1),
            "streaming_rss_mb": round(streaming["peak_rss_mb"], 1),
            "rss_ratio": round(rss_ratio, 3),
            "full_wall_seconds": round(full["wall_seconds"], 3),
            "streaming_wall_seconds": round(streaming["wall_seconds"], 3),
            "wall_ratio": round(wall_ratio, 3),
            "report_identical": streaming["report_sha256"]
            == full["report_sha256"],
        },
    )

    assert streaming["report_sha256"] == full["report_sha256"], (
        "streaming report must match the full-frame report byte-for-byte"
    )
    assert rss_ratio <= MAX_RSS_RATIO, (
        f"streaming peak RSS is {rss_ratio:.0%} of full-frame "
        f"(ceiling {MAX_RSS_RATIO:.0%})"
    )
    assert wall_ratio <= MAX_WALL_RATIO, (
        f"streaming wall time is {wall_ratio:.1f}x full-frame "
        f"(ceiling {MAX_WALL_RATIO:.1f}x)"
    )
