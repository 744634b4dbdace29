"""Parallel fan-out across independent cache-sweep lines.

A Figure 9 style experiment is a set of *lines* — one
``(policy, n_io_nodes)`` curve each — that share nothing but the
read-only request stream.  Each line is one
:func:`~repro.caching.io_node.sweep_buffer_counts` call: a single
stack-distance pass for LRU/OPT, one replay per buffer count for FIFO
and interprocess.  Lines are embarrassingly parallel, so this module
fans them out over the work-stealing pool of
:func:`repro.util.pool.map_tasks`.

The precomputed request stream (a tuple of numpy arrays) is built once
and *shared* with the workers, which inherit it copy-on-write under
fork — it is never pickled per line.  When the pool cannot help — one
line, one worker, or a platform without fork — the lines run serially
in-process with identical results.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro import obs
from repro.caching.io_node import _resolve_stream, sweep_buffer_counts
from repro.caching.results import HitRateCurve
from repro.errors import CacheConfigError
from repro.util.pool import map_tasks
from repro.util.units import BLOCK_SIZE


@dataclass(frozen=True)
class SweepLine:
    """One curve of a sweep: a policy on a given I/O-node layout."""

    policy: str
    n_io_nodes: int = 10


def _as_line(spec: SweepLine | str | tuple) -> SweepLine:
    if isinstance(spec, SweepLine):
        return spec
    if isinstance(spec, str):
        return SweepLine(policy=spec)
    if isinstance(spec, tuple) and 1 <= len(spec) <= 2:
        return SweepLine(*spec)
    raise CacheConfigError(f"cannot interpret sweep line spec {spec!r}")


def _run_line(
    stream: tuple[np.ndarray, ...],
    buffer_counts: Sequence[int],
    line: SweepLine,
    block_size: int,
) -> HitRateCurve:
    t0 = time.perf_counter()
    curve = sweep_buffer_counts(
        None,
        buffer_counts,
        n_io_nodes=line.n_io_nodes,
        policy=line.policy,
        block_size=block_size,
        stream=stream,
    )
    if obs.enabled():
        obs.hist("caching.sweep.line_seconds", time.perf_counter() - t0)
    return curve


def sweep_lines(
    frame,
    buffer_counts: Sequence[int],
    lines: Sequence[SweepLine | str | tuple],
    block_size: int = BLOCK_SIZE,
    workers: int | None = None,
    stream: tuple[np.ndarray, ...] | None = None,
) -> list[HitRateCurve]:
    """Compute several sweep lines over one trace, in parallel.

    ``lines`` entries may be :class:`SweepLine` instances, bare policy
    names, or ``(policy, n_io_nodes)`` tuples.  Results come back in
    the order given.  ``workers`` caps the process count (default: one
    per line, bounded by the cores this process may run on); with one
    worker or one line everything runs in-process.

    Sweep lines are wildly uneven (an OPT line costs several LRU
    lines), which the work-stealing pool (:mod:`repro.util.sched`)
    absorbs: idle workers take queued lines from the busiest worker's
    tail.  Results are identical to a serial run either way.
    """
    specs = [_as_line(line) for line in lines]
    if not specs:
        return []
    stream = _resolve_stream(frame, stream, block_size)
    counts = [int(c) for c in buffer_counts]
    obs.add("caching.sweeps.lines", len(specs))
    if workers is None:
        # the affinity mask, not the host's core count: under taskset or
        # a cpuset, forks beyond the usable cores only time-share them
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        workers = min(len(specs), cores)
    # the stream is the shared object: forked workers inherit it
    # copy-on-write, so it is built once and never pickled per line
    names = [
        f"line{i}/{line.policy}/io{line.n_io_nodes}"
        for i, line in enumerate(specs)
    ]
    tasks = {
        name: partial(
            _run_line, buffer_counts=counts, line=line, block_size=block_size
        )
        for name, line in zip(names, specs)
    }
    with obs.span("caching/sweep_lines"):
        done = map_tasks(tasks, stream, workers)
        return [done[name] for name in names]
