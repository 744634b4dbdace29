"""The §4.8 combined experiment: compute-node + I/O-node caches together.

The paper's final test: put a single one-block buffer at each compute
node *in front of* 10 I/O nodes with 50 buffers each, and ask how much
the compute-node layer steals from the I/O-node layer.  Answer: only a
~3 % reduction in the I/O-node hit rate — which means the I/O-node hits
were mostly *interprocess* (different nodes reusing each other's blocks),
a kind of locality a per-node cache cannot capture by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.caching.blockspan import expand_spans
from repro.caching.compute_node import read_only_file_ids
from repro.caching.io_node import _build_caches, _resolve_stream, request_jobs
from repro.caching.policies import LRUPolicy, ReplacementPolicy
from repro.errors import CacheConfigError
from repro.trace.frame import TraceFrame
from repro.util.units import BLOCK_SIZE


@dataclass(frozen=True)
class CombinedResult:
    """I/O-node hit rates with and without the compute-node layer."""

    io_hit_rate_without: float
    io_hit_rate_with: float
    compute_hit_rate: float
    requests_absorbed: int
    sub_requests_without: int
    sub_requests_with: int

    @property
    def io_hit_rate_reduction(self) -> float:
        """Absolute drop in I/O-node hit rate caused by the compute layer
        (paper: about 3 percentage points)."""
        return self.io_hit_rate_without - self.io_hit_rate_with


def _serve(
    caches: list[ReplacementPolicy],
    blocks: list[int],
    ios: list[int],
    file: int,
    lo: int,
    hi: int,
) -> tuple[int, int]:
    """Send one request's blocks (``[lo, hi)`` in the expansion) to the
    I/O nodes; returns (sub_requests, hits).

    Writes also pass through here (populating buffers), but the caller
    only scores the read traffic, matching the Figure 9 metric."""
    if hi - lo == 1:
        cache = caches[ios[lo]]
        key = (file, blocks[lo])
        present = key in cache
        cache.access(key)
        return 1, 1 if present else 0
    full: dict[int, bool] = {}
    for i in range(lo, hi):
        io = ios[i]
        cache = caches[io]
        key = (file, blocks[i])
        full[io] = full.get(io, True) and key in cache
        cache.access(key)
    return len(full), sum(1 for v in full.values() if v)


def simulate_combined(
    frame: TraceFrame,
    compute_buffers: int = 1,
    io_buffers_per_node: int = 50,
    n_io_nodes: int = 10,
    policy: str = "lru",
    block_size: int = BLOCK_SIZE,
    stream: tuple[np.ndarray, ...] | None = None,
) -> CombinedResult:
    """Run both cache layers over the trace, with and without filtering.

    Reads of read-only files pass through the issuing node's compute
    cache first; a fully-satisfied request is absorbed and never reaches
    the I/O nodes.  Everything else (writes, reads of writable files, and
    partially-missed reads) goes to the I/O nodes in full, as CFS would
    send it.

    The request stream and its block expansion are computed once and
    shared by all three cache layers; callers that already hold the
    stream (e.g. alongside a Figure 9 sweep) can pass it in.
    """
    if compute_buffers < 1:
        raise CacheConfigError("need at least one compute-node buffer")
    with obs.span("caching/combined"):
        ro = set(read_only_file_ids(frame).tolist())
        files, first, last, nodes, is_read = _resolve_stream(frame, stream, block_size)
        jobs = request_jobs(frame, block_size)

        io_with = _build_caches(policy, io_buffers_per_node * n_io_nodes, n_io_nodes)
        io_without = _build_caches(policy, io_buffers_per_node * n_io_nodes, n_io_nodes)
        compute: dict[tuple[int, int], LRUPolicy] = {}

        spans = expand_spans(files, first, last)
        starts = spans.starts.tolist()
        blocks = spans.block.tolist()
        ios = spans.io_nodes(n_io_nodes).tolist()

        io_hits_with = io_hits_without = 0
        io_sub_with = io_sub_without = 0
        comp_hits = comp_reqs = 0
        absorbed = 0

        for r, (job, node, file, rd) in enumerate(
            zip(jobs.tolist(), nodes.tolist(), files.tolist(), is_read.tolist())
        ):
            lo, hi = starts[r], starts[r + 1]
            # the unfiltered baseline sees every request
            subs, hits = _serve(io_without, blocks, ios, file, lo, hi)
            if rd:
                io_sub_without += subs
                io_hits_without += hits
            forwarded = True
            if rd and file in ro:
                cache = compute.get((job, node))
                if cache is None:
                    cache = LRUPolicy(compute_buffers)
                    compute[(job, node)] = cache
                hit = all((file, blocks[i]) in cache for i in range(lo, hi))
                for i in range(lo, hi):
                    cache.touch((file, blocks[i]))
                comp_reqs += 1
                if hit:
                    comp_hits += 1
                    absorbed += 1
                    forwarded = False
            if forwarded:
                subs, hits = _serve(io_with, blocks, ios, file, lo, hi)
                if rd:
                    io_sub_with += subs
                    io_hits_with += hits

        if obs.enabled():
            obs.add("caching.combined.simulations")
            obs.add("caching.combined.requests_absorbed", absorbed)
            obs.add("caching.combined.compute_requests", comp_reqs)
        return CombinedResult(
            io_hit_rate_without=io_hits_without / io_sub_without if io_sub_without else 0.0,
            io_hit_rate_with=io_hits_with / io_sub_with if io_sub_with else 0.0,
            compute_hit_rate=comp_hits / comp_reqs if comp_reqs else 0.0,
            requests_absorbed=absorbed,
            sub_requests_without=io_sub_without,
            sub_requests_with=io_sub_with,
        )
