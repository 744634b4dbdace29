"""The cache oracles: the per-block dictionary replays of Figure 8, §4.8
and the §5 disk experiments.

Each function replays the trace request by request through
:class:`~repro.caching.policies.LRUPolicy` dictionaries (and, for §4.8's
I/O-node layer, the policy's dictionary caches), exactly as the
simulators did before each layer ran on its engine.  Nothing in
``src/`` imports this module: ``tests/test_caching_stackdist.py``,
``tests/test_caching_combined.py`` and
``tests/test_caching_extensions.py`` hold
:func:`repro.caching.stackdist.compute_node_stack_profile`,
:func:`repro.caching.combined.simulate_combined`,
:func:`repro.caching.disktime.simulate_disk_time` and
:func:`repro.caching.latency.simulate_request_latency` to these copies.

The I/O-node layer's own oracle,
:func:`repro.caching.io_node.replay_io_node_caches`, stays in ``src/``:
it is OPT's and the interprocess policy's engine.
"""

from __future__ import annotations

import numpy as np

from repro.caching.blockspan import expand_spans
from repro.caching.combined import CombinedResult
from repro.caching.compute_node import ComputeNodeCacheResult, read_only_file_ids
from repro.caching.disktime import DiskTimeResult
from repro.caching.io_node import _nonzero_transfers, request_stream
from repro.caching.latency import LatencyResult
from repro.caching.policies import LRUPolicy, ReplacementPolicy, make_policy
from repro.errors import CacheConfigError
from repro.machine.disk import Disk
from repro.machine.message import MessageModel
from repro.machine.topology import Hypercube
from repro.trace.frame import TraceFrame
from repro.util.units import BLOCK_SIZE


def _build_caches(
    policy: str, total_buffers: int, n_io_nodes: int
) -> list[ReplacementPolicy]:
    """One dictionary cache per I/O node, the first ``total_buffers %
    n_io_nodes`` holding one buffer more: the split as the replays made
    it, kept here so the oracles do not share the engines' helper."""
    if total_buffers < 0:
        raise CacheConfigError("total_buffers must be non-negative")
    if n_io_nodes <= 0:
        raise CacheConfigError("need at least one I/O node")
    base, extra = divmod(total_buffers, n_io_nodes)
    return [
        make_policy(policy, base + (1 if i < extra else 0)) for i in range(n_io_nodes)
    ]


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
    jobs = _nonzero_transfers(frame)["job"].astype(np.int64)

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


def simulate_disk_time(
    frame: TraceFrame | None,
    total_buffers: int,
    n_io_nodes: int = 10,
    policy: str = "lru",
    block_size: int = BLOCK_SIZE,
    disk: Disk | None = None,
    stream: tuple[np.ndarray, ...] | None = None,
) -> tuple[DiskTimeResult, DiskTimeResult]:
    """(cacheless, cached) disk-time results for the same trace.

    Cacheless: every request's blocks on each I/O node are one disk
    operation.  Cached: only missing blocks reach a disk, and the
    contiguous misses of one request are coalesced into single disk
    operations (the cache's request-combining effect).  Writes are
    write-behind in both systems but uncoalesced without a cache.

    ``stream`` lets callers reuse one precomputed request stream; the
    ``frame`` may then be ``None``.
    """
    if total_buffers < 0:
        raise CacheConfigError("total_buffers must be non-negative")
    if stream is None:
        stream = request_stream(frame, block_size)
    files, first, last, nodes, is_read = stream
    caches = _build_caches(policy, total_buffers, n_io_nodes)

    raw_disk = disk if disk is not None else Disk()
    cached_disk = Disk(
        capacity=raw_disk.capacity, avg_seek=raw_disk.avg_seek,
        rotation_time=raw_disk.rotation_time, transfer_rate=raw_disk.transfer_rate,
    )

    raw_ops = raw_bytes = 0
    raw_busy = 0.0
    raw_last: dict[int, tuple[int, int]] = {}
    cache_ops = cache_bytes = 0
    cache_busy = 0.0
    cache_last: dict[int, tuple[int, int]] = {}

    spans = expand_spans(files, first, last)
    starts = spans.starts.tolist()
    span_blocks = spans.block.tolist()
    span_ios = spans.io_nodes(n_io_nodes).tolist()

    for r, f in enumerate(files.tolist()):
        lo, hi = starts[r], starts[r + 1]
        # --- cacheless system: one disk op per (request, io node) ---
        per_io: dict[int, list[int]] = {}
        for i in range(lo, hi):
            per_io.setdefault(span_ios[i], []).append(span_blocks[i])
        for io, blocks in per_io.items():
            raw_ops += 1
            nbytes = len(blocks) * block_size
            raw_bytes += nbytes
            # on this node's disk, the next physical block after file
            # block b (of the same file) is b + n_io_nodes
            sequential = raw_last.get(io) == (f, blocks[0] - n_io_nodes)
            raw_last[io] = (f, blocks[-1])
            raw_busy += raw_disk.service_time(nbytes, sequential=sequential)

        # --- cached system: only misses, coalesced into runs ---
        miss_runs: dict[int, list[tuple[int, int]]] = {}
        for i in range(lo, hi):
            b = span_blocks[i]
            io = span_ios[i]
            key = (f, b)
            hit = caches[io].access(key)
            if hit:
                continue
            runs = miss_runs.setdefault(io, [])
            if runs and runs[-1][1] == b - n_io_nodes:
                runs[-1] = (runs[-1][0], b)
            else:
                runs.append((b, b))
        for io, runs in miss_runs.items():
            for a, z in runs:
                n_blocks = (z - a) // n_io_nodes + 1
                cache_ops += 1
                nbytes = n_blocks * block_size
                cache_bytes += nbytes
                sequential = cache_last.get(io) == (f, a - n_io_nodes)
                cache_last[io] = (f, z)
                cache_busy += cached_disk.service_time(nbytes, sequential=sequential)

    return (
        DiskTimeResult(n_disk_ops=raw_ops, bytes_moved=raw_bytes, busy_seconds=raw_busy),
        DiskTimeResult(n_disk_ops=cache_ops, bytes_moved=cache_bytes, busy_seconds=cache_busy),
    )


def simulate_request_latency(
    frame: TraceFrame,
    total_buffers: int,
    n_io_nodes: int = 10,
    policy: str = "lru",
    block_size: int = BLOCK_SIZE,
    disk: Disk | None = None,
    messages: MessageModel | None = None,
    io_node_overhead: float = 0.5e-3,
) -> LatencyResult:
    """Price every request through the machine model.

    Per request: one message round trip (request + response bytes) to
    each I/O node touched, a fixed per-sub-request I/O-node software
    overhead (CFS's server path, ~0.5 ms), and disk service for the
    blocks that miss — contiguous misses of one request coalescing into
    single disk operations, sequential when they extend the disk's last
    position.  With ``total_buffers=0`` every block misses (the
    cacheless baseline).
    """
    if total_buffers < 0:
        raise CacheConfigError("total_buffers must be non-negative")
    if io_node_overhead < 0:
        raise CacheConfigError("io_node_overhead must be non-negative")
    files, first, last, nodes, is_read = request_stream(frame, block_size)
    caches = _build_caches(policy, total_buffers, n_io_nodes)
    d = disk if disk is not None else Disk()
    msg = messages if messages is not None else MessageModel(Hypercube(7))
    # I/O nodes hang off evenly spaced compute nodes; approximating each
    # as its own hypercube attachment point
    io_attach = [
        (i * max(1, 128 // n_io_nodes)) % 128 for i in range(n_io_nodes)
    ]

    latencies = np.zeros(len(files))
    last_block: dict[int, tuple[int, int]] = {}
    for r in range(len(files)):
        f = int(files[r])
        b0 = int(first[r])
        b1 = int(last[r])
        node = int(nodes[r]) % 128
        per_io_bytes: dict[int, int] = {}
        miss_runs: dict[int, list[tuple[int, int]]] = {}
        for b in range(b0, b1 + 1):
            io = b % n_io_nodes
            # data moves at block granularity, as CFS shipped striped blocks
            per_io_bytes[io] = per_io_bytes.get(io, 0) + block_size
            hit = caches[io].access((f, b))
            if not hit:
                runs = miss_runs.setdefault(io, [])
                if runs and runs[-1][1] == b - n_io_nodes:
                    runs[-1] = (runs[-1][0], b)
                else:
                    runs.append((b, b))
        # the request completes when its slowest I/O node finishes
        worst = 0.0
        for io, nbytes in per_io_bytes.items():
            t = msg.latency_bytes(node, io_attach[io], 64)          # request
            t += msg.latency_bytes(io_attach[io], node, nbytes)     # data back
            t += io_node_overhead
            for a, z in miss_runs.get(io, []):
                n_blocks = (z - a) // n_io_nodes + 1
                sequential = last_block.get(io) == (f, a - n_io_nodes)
                last_block[io] = (f, z)
                t += d.service_time(n_blocks * block_size, sequential=sequential)
            worst = max(worst, t)
        latencies[r] = worst
    return LatencyResult(
        n_requests=len(files),
        total_seconds=float(latencies.sum()),
        latencies=latencies,
    )
