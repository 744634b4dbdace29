"""End-to-end request latency: what a cache hit is actually worth.

The paper stops at hit rates ("the hit rates were similar; performance
is another issue").  This extension answers the deferred question with
the machine model already in hand: a request's latency is the message
round trip to each I/O node it touches, plus disk service for the blocks
that miss.  Scoring the trace's I/O-node caches with Figure 9's LRU pass,
with no buffers and with some, yields the application-visible I/O time
the cache saves.

The model is deliberately contention-free (no queueing): it prices each
request in isolation, which is the right granularity for comparing
configurations on the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.caching.disktime import disk_operations
from repro.caching.io_node import request_stream
from repro.caching.stackdist import io_node_lru_depths, io_node_lru_misses
from repro.errors import CacheConfigError
from repro.machine.disk import Disk
from repro.machine.message import MessageModel
from repro.machine.topology import Hypercube
from repro.trace.frame import TraceFrame
from repro.util.cdf import EmpiricalCDF
from repro.util.units import BLOCK_SIZE

#: fixed software cost of one sub-request at an I/O node (CFS's server
#: path), in seconds
_IO_NODE_OVERHEAD = 0.5e-3


@dataclass(frozen=True)
class LatencyResult:
    """Per-request latency statistics for one configuration."""

    n_requests: int
    total_seconds: float
    latencies: np.ndarray  # seconds, one per request

    @property
    def mean(self) -> float:
        """Mean request latency in seconds."""
        return self.total_seconds / self.n_requests if self.n_requests else 0.0

    @property
    def median(self) -> float:
        """Median request latency in seconds."""
        return float(np.median(self.latencies)) if len(self.latencies) else 0.0

    @property
    def p95(self) -> float:
        """95th-percentile request latency in seconds."""
        return float(np.percentile(self.latencies, 95)) if len(self.latencies) else 0.0

    def cdf(self) -> EmpiricalCDF:
        """Latency CDF (milliseconds)."""
        return EmpiricalCDF(self.latencies * 1e3)


@dataclass(frozen=True)
class LatencyComparison:
    """(uncached, cached) request latency over one trace."""

    uncached: LatencyResult
    cached: LatencyResult

    @property
    def speedup(self) -> float:
        """Total-I/O-time ratio, uncached over cached."""
        if self.cached.total_seconds == 0:
            return float("inf")
        return self.uncached.total_seconds / self.cached.total_seconds


def _latencies(
    frame: TraceFrame, buffer_counts: tuple[int, ...], n_io_nodes: int
) -> list[LatencyResult]:
    """Price every request at each total buffer count, from one LRU pass."""
    if min(buffer_counts) < 0:
        raise CacheConfigError("total_buffers must be non-negative")
    with obs.span("caching/latency"):
        files, first, last, nodes, _is_read = request_stream(frame)
        spans, io, depths = io_node_lru_depths(files, first, last, n_io_nodes)
        subs = spans.sub_requests(n_io_nodes)
        msg = MessageModel(Hypercube(7))
        # I/O nodes hang off evenly spaced compute nodes; approximating
        # each as its own hypercube attachment point
        attach = [(i * max(1, 128 // n_io_nodes)) % 128 for i in range(n_io_nodes)]
        # per sub-request, whatever the cache: the request message, the
        # data back (CFS shipped striped blocks, so data moves at block
        # granularity) and the I/O node's software overhead
        sub_bytes = np.bincount(subs.block_sub, minlength=len(subs)) * BLOCK_SIZE
        base = [
            msg.latency_bytes(node, attach[io], 64)
            + msg.latency_bytes(attach[io], node, nbytes)
            + _IO_NODE_OVERHEAD
            for node, io, nbytes in zip(
                (nodes[subs.req] % 128).tolist(), subs.io_node.tolist(), sub_bytes.tolist()
            )
        ]
        results = []
        for buffers in buffer_counts:
            miss = io_node_lru_misses(io, depths, buffers, n_io_nodes)
            at, n_blocks, sequential = disk_operations(spans, io, miss, n_io_nodes)
            seconds = list(base)
            disk = Disk()
            for sub, count, seq in zip(
                subs.block_sub[at].tolist(), n_blocks.tolist(), sequential.tolist()
            ):
                seconds[sub] += disk.service_time(count * BLOCK_SIZE, sequential=seq)
            # the request completes when its slowest I/O node finishes
            latencies = np.maximum.reduceat(
                np.asarray(seconds), np.searchsorted(subs.req, np.arange(spans.n_requests))
            )
            results.append(LatencyResult(spans.n_requests, float(latencies.sum()), latencies))
        return results


def simulate_request_latency(
    frame: TraceFrame,
    total_buffers: int,
    n_io_nodes: int = 10,
) -> LatencyResult:
    """Price every request through the machine model.

    Per request: one message round trip (request + response bytes) to
    each I/O node touched, a fixed per-sub-request I/O-node software
    overhead (CFS's server path, ~0.5 ms), and disk service for the blocks
    that miss the ``total_buffers`` LRU I/O-node caches — contiguous
    misses of one request coalescing into single disk operations,
    sequential when they extend the disk's last position
    (:func:`repro.caching.disktime.disk_operations`).  With
    ``total_buffers=0`` every block misses (the cacheless baseline).
    """
    return _latencies(frame, (total_buffers,), n_io_nodes)[0]


def compare_latency(
    frame: TraceFrame,
    total_buffers: int = 500,
    n_io_nodes: int = 10,
) -> LatencyComparison:
    """Uncached vs cached request latency over one trace."""
    uncached, cached = _latencies(frame, (0, total_buffers), n_io_nodes)
    return LatencyComparison(uncached=uncached, cached=cached)
