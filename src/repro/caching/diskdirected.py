"""Disk-directed (collective) I/O — the paper's final recommendation.

§5's last word: "For some applications, collective I/O requests can lead
to even better performance", citing Kotz's disk-directed I/O.  The idea:
instead of each compute node dribbling its own requests at the I/O
nodes, the *collective* request (every node's part of a file region) is
handed to the I/O nodes, and each I/O node reads its share of the
region's blocks in one sequential sweep of its disk.

This module measures that potential on a trace: for each file, the union
of extents actually transferred is computed, each I/O node's share of
those blocks is coalesced into sequential disk sweeps, and the resulting
disk time is compared against the per-request accounting of
:mod:`repro.caching.disktime`.  The result is an upper bound — it
assumes perfect collectivity per file — which is exactly the right
framing for an interface recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.caching.blockspan import expand_spans
from repro.caching.disktime import DiskTimeResult, simulate_disk_time
from repro.errors import CacheConfigError
from repro.machine.disk import Disk
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind
from repro.util.units import BLOCK_SIZE


@dataclass(frozen=True)
class DiskDirectedComparison:
    """Per-request vs disk-directed disk activity for one trace."""

    per_request: DiskTimeResult
    cached: DiskTimeResult
    disk_directed: DiskTimeResult

    @property
    def speedup_vs_per_request(self) -> float:
        """Disk-busy-time ratio: naive per-request / disk-directed."""
        if self.disk_directed.busy_seconds == 0:
            return float("inf")
        return self.per_request.busy_seconds / self.disk_directed.busy_seconds

    @property
    def speedup_vs_cached(self) -> float:
        """Disk-busy-time ratio: cached / disk-directed."""
        if self.disk_directed.busy_seconds == 0:
            return float("inf")
        return self.cached.busy_seconds / self.disk_directed.busy_seconds


def _union_blocks(offsets: np.ndarray, sizes: np.ndarray, block_size: int) -> np.ndarray:
    """Distinct block indices covered by a set of extents."""
    first = offsets // block_size
    last = (offsets + sizes - 1) // block_size
    return np.unique(expand_spans(np.zeros_like(first), first, last).block)


def simulate_disk_directed(frame: TraceFrame, n_io_nodes: int = 10) -> DiskTimeResult:
    """Disk time if every file's traffic were one collective operation.

    Per (file, direction): the union of transferred blocks is split by
    striping across the I/O nodes; each node services its blocks as
    maximal sequential sweeps (runs of its consecutive disk blocks, i.e.
    file blocks ``n_io_nodes`` apart).
    """
    if n_io_nodes <= 0:
        raise CacheConfigError("need at least one I/O node")
    tr = frame.transfers
    if len(tr) == 0:
        raise CacheConfigError("no transfers in trace")
    with obs.span("caching/diskdirected"):
        d = Disk()
        ops = 0
        nbytes_total = 0
        busy = 0.0
        # deterministic file order; direction split keeps read/write sweeps apart
        for kind in (int(EventKind.READ), int(EventKind.WRITE)):
            sub = tr[tr["kind"] == kind]
            if len(sub) == 0:
                continue
            order = np.argsort(sub["file"], kind="stable")
            sub = sub[order]
            boundaries = np.nonzero(sub["file"][1:] != sub["file"][:-1])[0] + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [len(sub)]))
            for a, b in zip(starts.tolist(), ends.tolist()):
                offsets = sub["offset"][a:b].astype(np.int64)
                sizes = sub["size"][a:b].astype(np.int64)
                keep = sizes > 0
                if not keep.any():
                    continue
                blocks = _union_blocks(offsets[keep], sizes[keep], BLOCK_SIZE)
                for io in range(n_io_nodes):
                    mine = blocks[blocks % n_io_nodes == io]
                    if len(mine) == 0:
                        continue
                    # sweeps: runs of consecutive owned blocks (step n_io_nodes)
                    run_breaks = np.nonzero(np.diff(mine) != n_io_nodes)[0] + 1
                    run_starts = np.concatenate(([0], run_breaks))
                    run_ends = np.concatenate((run_breaks, [len(mine)]))
                    for ra, rb in zip(run_starts.tolist(), run_ends.tolist()):
                        run_blocks = rb - ra
                        nbytes = run_blocks * BLOCK_SIZE
                        ops += 1
                        nbytes_total += nbytes
                        # first sweep of a region pays positioning; subsequent
                        # sweeps of the same file on this disk seek again
                        busy += d.service_time(nbytes, sequential=False)
    return DiskTimeResult(n_disk_ops=ops, bytes_moved=nbytes_total, busy_seconds=busy)


def compare_interfaces(
    frame: TraceFrame,
    cache_buffers: int = 500,
    n_io_nodes: int = 10,
) -> DiskDirectedComparison:
    """Three-way §5 comparison: per-request, cached, disk-directed."""
    per_request, cached = simulate_disk_time(frame, cache_buffers, n_io_nodes=n_io_nodes)
    directed = simulate_disk_directed(frame, n_io_nodes=n_io_nodes)
    return DiskDirectedComparison(
        per_request=per_request, cached=cached, disk_directed=directed
    )
