"""Shared benchmark fixtures.

One calibrated workload is generated per session (the expensive part) and
every figure/table benchmark analyzes it.  ``REPRO_BENCH_SCALE`` scales
the traced period (default 0.06 — about 9.4 synthetic hours, a few
hundred thousand events; the shapes are scale-invariant).
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.workload import WorkloadGenerator, ames1993

#: layout version of the BENCH_*.json envelope written by emit_json
BENCH_SCHEMA = 1


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.06"))


def _seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "7"))


@pytest.fixture(scope="session")
def workload():
    """The benchmark trace (generated once)."""
    return WorkloadGenerator(ames1993(_scale()), seed=_seed()).run("direct")


@pytest.fixture(scope="session")
def frame(workload):
    return workload.frame


def show(title: str, body: str) -> None:
    """Print a reproduction block (visible with ``pytest -s`` and in
    captured output on failure)."""
    bar = "=" * len(title)
    print(f"\n{title}\n{bar}\n{body}\n")


def flatten_metrics(payload, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of a nested payload, dot-joined (lists by
    index, bools as 0/1) — the flat metric map ``repro obs diff`` gates
    on."""
    out: dict[str, float] = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            out.update(flatten_metrics(value, f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)):
        for i, value in enumerate(payload):
            out.update(flatten_metrics(value, f"{prefix}{i}."))
    elif isinstance(payload, (bool, int, float)):
        out[prefix[:-1]] = float(payload)
    return out


def _usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS
    has one), which a shared or pinned host keeps below ``cpu_count``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def emit_json(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` next to the benchmarks.

    Perf benchmarks use this to leave a machine-readable record
    (speedups, throughput) that is tracked across PRs.  Every file
    shares one envelope regardless of the bench's own payload shape:
    schema version, bench name, timestamp, host info, the flat
    ``metrics`` map (every numeric leaf of ``payload``, dot-joined) the
    regression gate compares, and the original payload under ``raw``.
    """
    record = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "usable_cores": _usable_cores(),
        },
        "metrics": flatten_metrics(payload),
        "raw": payload,
    }
    path = Path(__file__).resolve().parent / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path
