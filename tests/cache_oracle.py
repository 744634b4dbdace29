"""The cache oracles: the per-block dictionary replays of Figure 8 and §4.8.

Each function replays the trace request by request through
:class:`~repro.caching.policies.LRUPolicy` dictionaries (and, for §4.8's
I/O-node layer, the policy's dictionary caches), exactly as the
simulators did before each layer ran on its engine.  Nothing in
``src/`` imports this module: ``tests/test_caching_stackdist.py`` and
``tests/test_caching_combined.py`` hold
:func:`repro.caching.stackdist.compute_node_stack_profile` and
:func:`repro.caching.combined.simulate_combined` to these copies.

The I/O-node layer's own oracle,
:func:`repro.caching.io_node.replay_io_node_caches`, stays in ``src/``:
it is OPT's and the interprocess policy's engine.
"""

from __future__ import annotations

import numpy as np

from repro.caching.blockspan import expand_spans
from repro.caching.combined import CombinedResult
from repro.caching.compute_node import ComputeNodeCacheResult, read_only_file_ids
from repro.caching.io_node import _build_caches, request_jobs, request_stream
from repro.caching.policies import LRUPolicy, ReplacementPolicy
from repro.errors import CacheConfigError
from repro.trace.frame import TraceFrame
from repro.util.units import BLOCK_SIZE


def simulate_compute_node_caches(
    frame: TraceFrame,
    buffers: int = 1,
    block_size: int = BLOCK_SIZE,
) -> ComputeNodeCacheResult:
    """Run the Figure 8 simulation at one buffer count.

    Jobs with no read-only reads are excluded (they have no cache to
    measure), matching the per-job population of the figure.
    """
    if buffers < 1:
        raise CacheConfigError("need at least one buffer")
    ro = read_only_file_ids(frame)
    reads = frame.reads
    mask = np.isin(reads["file"], ro)
    reads = reads[mask]
    if len(reads) == 0:
        raise CacheConfigError("no read-only reads in trace")

    file_arr = reads["file"].astype(np.int64)
    first_block = (reads["offset"] // block_size).astype(np.int64)
    last_block = (
        np.maximum(reads["offset"] + reads["size"] - 1, reads["offset"]) // block_size
    ).astype(np.int64)
    spans = expand_spans(file_arr, first_block, last_block)
    starts = spans.starts.tolist()
    blocks = spans.block.tolist()
    jobs = reads["job"].astype(np.int64).tolist()
    nodes = reads["node"].astype(np.int64).tolist()
    files = file_arr.tolist()

    caches: dict[tuple[int, int], LRUPolicy] = {}
    hits_by_job: dict[int, int] = {}
    reqs_by_job: dict[int, int] = {}

    for r, (job, node, file) in enumerate(zip(jobs, nodes, files)):
        cache = caches.get((job, node))
        if cache is None:
            cache = LRUPolicy(buffers)
            caches[(job, node)] = cache
        lo, hi = starts[r], starts[r + 1]
        if hi - lo == 1:
            # fast path: the common sub-block request
            key = (file, blocks[lo])
            hit = key in cache
            cache.touch(key)
        else:
            # a request hits only when every block it spans is present
            hit = all((file, blocks[i]) in cache for i in range(lo, hi))
            for i in range(lo, hi):
                cache.touch((file, blocks[i]))
        reqs_by_job[job] = reqs_by_job.get(job, 0) + 1
        if hit:
            hits_by_job[job] = hits_by_job.get(job, 0) + 1

    job_ids = np.asarray(sorted(reqs_by_job), dtype=np.int64)
    counts = np.asarray([reqs_by_job[j] for j in job_ids.tolist()], dtype=np.int64)
    hits = np.asarray([hits_by_job.get(j, 0) for j in job_ids.tolist()], dtype=np.int64)
    return ComputeNodeCacheResult(
        buffers=buffers,
        job_ids=job_ids,
        job_hit_rates=hits / counts,
        job_request_counts=counts,
        total_hits=int(hits.sum()),
        total_requests=int(counts.sum()),
    )


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
) -> CombinedResult:
    """Run both cache layers over the trace, with and without filtering.

    Reads of read-only files pass through the issuing node's compute
    cache first; a fully-satisfied request is absorbed and never reaches
    the I/O nodes.  Everything else (writes, reads of writable files, and
    partially-missed reads) goes to the I/O nodes in full, as CFS would
    send it.
    """
    if compute_buffers < 1:
        raise CacheConfigError("need at least one compute-node buffer")
    ro = set(read_only_file_ids(frame).tolist())
    files, first, last, nodes, is_read = request_stream(frame, block_size)
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

    return CombinedResult(
        io_hit_rate_without=io_hits_without / io_sub_without if io_sub_without else 0.0,
        io_hit_rate_with=io_hits_with / io_sub_with if io_sub_with else 0.0,
        compute_hit_rate=comp_hits / comp_reqs if comp_reqs else 0.0,
        requests_absorbed=absorbed,
        sub_requests_without=io_sub_without,
        sub_requests_with=io_sub_with,
    )
