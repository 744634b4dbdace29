"""Disk-time accounting: what the I/O-node cache buys at the disk.

§4.8's argument for I/O-node caching is not the hit rate itself but what
it does to the *disks*: combining "several small requests ... into a few
larger requests that can be more efficiently served by disk hardware",
which matters even more for RAID.  This module scores the trace's
I/O-node caches with Figure 9's LRU pass and charges the disks only for
the misses (reads) and coalesced write-backs, using the
seek/rotate/transfer model of :class:`repro.machine.disk.Disk` — then
compares against a cacheless system where every request goes straight
to a disk, which is a cache of no buffers.  Both systems, and
:mod:`repro.caching.latency`, charge the disks from one walk,
:func:`disk_operations`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.caching.blockspan import BlockSpans
from repro.caching.io_node import request_stream
from repro.caching.stackdist import io_node_lru_depths, io_node_lru_misses
from repro.errors import CacheConfigError
from repro.machine.disk import Disk
from repro.trace.frame import TraceFrame
from repro.util.units import BLOCK_SIZE


@dataclass(frozen=True)
class DiskTimeResult:
    """Aggregate disk activity for one configuration."""

    n_disk_ops: int
    bytes_moved: int
    busy_seconds: float

    @property
    def mean_op_bytes(self) -> float:
        """Average disk transfer size — the coalescing measure."""
        return self.bytes_moved / self.n_disk_ops if self.n_disk_ops else 0.0

    @property
    def effective_bandwidth(self) -> float:
        """Bytes per busy-second actually delivered by the disks."""
        return self.bytes_moved / self.busy_seconds if self.busy_seconds else 0.0


def disk_operations(
    spans: BlockSpans, io: np.ndarray, miss: np.ndarray, n_io_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The disk operations serving the blocks in ``miss`` (one flag per
    block of ``spans``; ``io`` is each block's node), in serve order.

    Each node coalesces a request's misses into runs of the blocks it
    owns (``n_io_nodes`` apart, consecutive on its disk).  Requests come
    in time order; within one, nodes in the order of their first miss,
    and a node's runs in block order.  A run is sequential when its
    node's previous run ended, in the same file, at the block before it.
    Returns, per operation, the position of its first block in
    ``spans``, its block count and whether it is sequential.
    """
    pos = np.flatnonzero(miss)
    sub = spans.req[pos] * np.int64(n_io_nodes) + io[pos]
    order = np.argsort(sub, kind="stable")  # block order kept per sub-request
    pos, sub = pos[order], sub[order]
    block = spans.block[pos]
    new_sub = np.ones(len(pos), dtype=bool)
    np.not_equal(sub[1:], sub[:-1], out=new_sub[1:])
    # a run breaks where a sub-request starts or a missing block is skipped
    starts = np.flatnonzero(new_sub | np.append(True, block[1:] != block[:-1] + n_io_nodes))
    n_blocks = np.diff(np.append(starts, len(pos)))
    # a sub-request's runs are served at its first miss
    serve = np.argsort(pos[new_sub][np.cumsum(new_sub)[starts] - 1], kind="stable")
    starts, n_blocks = starts[serve], n_blocks[serve]
    first = pos[starts]
    # each operation against the one before it on its node's disk
    by_node = np.argsort(io[first], kind="stable")
    node, file = io[first][by_node], spans.file[first][by_node]
    begin, end = block[starts][by_node], block[starts + n_blocks - 1][by_node]
    sequential = np.zeros(len(first), dtype=bool)
    sequential[by_node[1:]] = (
        (node[1:] == node[:-1]) & (file[1:] == file[:-1]) & (begin[1:] - n_io_nodes == end[:-1])
    )
    return first, n_blocks, sequential


def _charge(
    spans: BlockSpans, io: np.ndarray, miss: np.ndarray, n_io_nodes: int
) -> DiskTimeResult:
    """Serve the misses' disk operations one after another."""
    _first, n_blocks, sequential = disk_operations(spans, io, miss, n_io_nodes)
    disk = Disk()
    busy = 0.0
    for count, seq in zip(n_blocks.tolist(), sequential.tolist()):
        busy += disk.service_time(count * BLOCK_SIZE, sequential=seq)
    return DiskTimeResult(len(n_blocks), int(n_blocks.sum()) * BLOCK_SIZE, busy)


def simulate_disk_time(
    frame: TraceFrame,
    total_buffers: int,
    n_io_nodes: int = 10,
) -> tuple[DiskTimeResult, DiskTimeResult]:
    """(cacheless, cached) disk-time results for the same trace.

    Cacheless: every request's blocks on each I/O node are one disk
    operation.  Cached: only blocks that miss the ``total_buffers`` LRU
    I/O-node caches reach a disk, and the contiguous misses of one
    request are coalesced into single disk operations (the cache's
    request-combining effect).  Writes are write-behind in both systems
    but uncoalesced without a cache.
    """
    if total_buffers < 0:
        raise CacheConfigError("total_buffers must be non-negative")
    with obs.span("caching/disktime"):
        files, first, last, _nodes, _is_read = request_stream(frame)
        spans, io, depths = io_node_lru_depths(files, first, last, n_io_nodes)
        raw, cached = [
            _charge(spans, io, io_node_lru_misses(io, depths, buffers, n_io_nodes), n_io_nodes)
            for buffers in (0, total_buffers)
        ]
    return raw, cached
