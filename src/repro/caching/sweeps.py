"""Several cache-sweep lines over one shared request stream.

A Figure 9 style experiment is a set of *lines* — one
``(policy, n_io_nodes)`` curve each — that share nothing but the
read-only request stream.  Each line is one
:func:`~repro.caching.io_node.sweep_buffer_counts` call: a single
stack-distance pass for LRU, one replay per buffer count for FIFO (a
loop over dense integer keys), OPT and interprocess.  :func:`sweep_lines`
builds the request stream once and runs the lines over it in turn.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.caching.io_node import _resolve_stream, sweep_buffer_counts
from repro.caching.results import HitRateCurve
from repro.errors import CacheConfigError
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
    stream: tuple[np.ndarray, ...] | None = None,
) -> list[HitRateCurve]:
    """Compute several sweep lines over one trace.

    ``lines`` entries may be :class:`SweepLine` instances, bare policy
    names, or ``(policy, n_io_nodes)`` tuples.  Results come back in
    the order given.  The request stream (``stream``, or the one built
    from ``frame``) is built once and read by every line.
    """
    specs = [_as_line(line) for line in lines]
    if not specs:
        return []
    counts = [int(c) for c in buffer_counts]
    obs.add("caching.sweeps.lines", len(specs))
    with obs.span("caching/sweep_lines"):
        stream = _resolve_stream(frame, stream, block_size)
        return [_run_line(stream, counts, line, block_size) for line in specs]
