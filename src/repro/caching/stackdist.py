"""Single-pass stack-distance cache analysis: exact curves at all capacities.

A dictionary replay answers "what is the hit rate at *one* cache size"
by replaying the whole trace; sweeping Figure 8/9 over a grid of buffer
counts that way replays the trace once per point.  This module answers
the same question for **every** capacity simultaneously from one
traversal, using the classic stack-distance observation (Mattson et al.
1970): for a *stack algorithm*, the capacity-``C`` cache always holds
the top ``C`` entries of a single priority stack, so an access hits at
capacity ``C`` iff its stack depth is <= ``C``.  It is the LRU engine
of every cache layer: Figure 8's compute-node caches, Figure 9's
I/O-node caches, both layers of the §4.8 combined experiment, and the
§5 disk experiments' I/O-node caches.

- **LRU** depths are computed with the Bennett–Kruskal counting method,
  vectorized: the depth of an access at position ``i`` with previous use
  at ``p`` is ``i - p - D(i)`` where ``D(i)`` counts earlier accesses
  whose own previous use lies after ``p`` — an inversion-style count
  done with a bottom-up, numpy-vectorized merge (no per-access Python).
  Only re-references pay for it: immediate repeats (depth 1) collapse
  first, cold accesses drop out of the count, and the merge pads to a
  multiple of its bootstrap width rather than to a power of two, so its
  cost follows the number of reuse accesses.
- **FIFO** and the interprocess-aware policy are *not* stack algorithms
  (FIFO famously violates inclusion — Belady's anomaly), so
  :mod:`repro.caching.io_node` replays them, once per buffer count.
- **OPT** (Belady) is a stack algorithm too, but a Mattson priority
  stack percolates each access level by level in Python and measured
  slower than replaying fig9's seven counts, so it is replayed once per
  buffer count as well.

The profiles returned here reproduce the dictionary replays' results
*exactly* — same integer hit/request counts, hence bit-identical hit
rates — which the property-based tests in
``tests/test_caching_stackdist.py`` enforce on random traces against
the replays kept as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.caching.blockspan import BlockSpans, _encode_pairs, expand_spans
from repro.caching.compute_node import ComputeNodeCacheResult, read_only_file_ids
from repro.caching.io_node import IONodeCacheResult, _node_capacities, _resolve_stream
from repro.errors import CacheConfigError
from repro.trace.frame import TraceFrame
from repro.util.units import BLOCK_SIZE

#: sentinel depth for cold (first-touch) accesses: misses at any capacity
COLD = np.iinfo(np.int64).max


# -- occurrence indexing -----------------------------------------------------


def _prev_occurrences(ids: np.ndarray) -> np.ndarray:
    """Index of the previous access to the same id, or -1 for first touch."""
    n = len(ids)
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    order = np.argsort(ids, kind="stable")
    srt = ids[order]
    same = srt[1:] == srt[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


# -- LRU: vectorized Bennett–Kruskal distances -------------------------------


#: bootstrap block width for :func:`_count_prev_greater_before`: pairs
#: inside blocks this wide are counted by one O(w^2) broadcast compare,
#: replacing the five cheapest (and proportionally most overhead-heavy)
#: merge levels
_BOOT = 32


def _merge_rows(vals, idx, new_vals, new_idx, res, big, lo, nb, width, rwidth):
    """Merge ``nb`` adjacent pairs of sorted runs, starting at ``lo``:
    each pair is a ``width``-long left run and an ``rwidth``-long right
    run of ``vals`` (``idx`` alongside), merged into ``new_vals`` and
    ``new_idx``.  Each right element adds to ``res`` its count of greater
    left elements."""
    row = width + rwidth
    hi = lo + nb * row
    pairs = vals[lo:hi].reshape(nb, row)
    pair_idx = idx[lo:hi].reshape(nb, row)
    # broadcasting the row offset onto the halves yields contiguous
    # copies whose concatenation is sorted row over row
    rows_col = np.arange(nb, dtype=np.int64)[:, None]
    left_flat = (pairs[:, :width] + rows_col * big).ravel()
    right_flat = (pairs[:, width:] + rows_col * big).ravel()
    # per right element: # of left elements <= it, its own row's and
    # every earlier row's
    le = np.searchsorted(left_flat, right_flat, side="right")
    right_i = pair_idx[:, width:].ravel()
    left_upto = np.arange(1, nb + 1, dtype=np.int64) * width
    res[right_i] += np.repeat(left_upto, rwidth) - le
    # merge by direct placement: each right element lands after the left
    # elements <= it and the right elements before it; the left run fills
    # the complement slots in order (both runs are sorted)
    right_dest = le + np.arange(nb * rwidth, dtype=np.int64)
    placed = np.zeros(hi - lo, dtype=bool)
    placed[right_dest] = True
    left_dest = np.flatnonzero(~placed)
    out_vals = new_vals[lo:hi]
    out_idx = new_idx[lo:hi]
    out_vals[right_dest] = pairs[:, width:].ravel()
    out_vals[left_dest] = pairs[:, :width].ravel()
    out_idx[right_dest] = right_i
    out_idx[left_dest] = pair_idx[:, :width].ravel()


def _count_prev_greater_before(prev: np.ndarray) -> np.ndarray:
    """``res[i] = #{q < i : prev[q] > prev[i]}`` by vectorized merge.

    Precondition: every entry is >= -1 (a position, or -1 for none).
    Entries may exceed ``len(prev)``: the row offset that keeps the
    flattened merge rows sorted is derived from the largest entry, so
    positions in a longer sequence need no rank compression.

    A bottom-up merge sort where, at the level two runs meet, each
    right-run element counts the left-run elements greater than it (a
    searchsorted against the already-sorted left run).  Each q < i pair
    is counted exactly once, at the level where their runs merge.  All
    per-level work is whole-array numpy; Python touches only the
    ``log2(n)`` levels.

    Three constant-factor refinements matter at trace scale: the bottom
    ``log2(_BOOT)`` levels are folded into a single broadcast compare
    over ``_BOOT``-wide blocks; each merge level places both sorted runs
    directly (one searchsorted; the left run lands on the complement
    slots) instead of re-sorting the merged run; and the input is padded
    only to a multiple of ``_BOOT``, not to a power of two, so the cost
    follows ``n``.  Each level merges its regular pairs as one flattened
    batch and the one irregular trailing pair (a full left run and a
    shorter right run) on its own; a lone trailing run carries over.
    """
    n = len(prev)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    size = -(-n // _BOOT) * _BOOT
    # padding trails every real entry, so it never counts for one
    vals = np.full(size, -1, dtype=np.int64)
    vals[:n] = prev

    # bootstrap: count every q < i pair inside each _BOOT-wide block with
    # one strictly-lower-triangle broadcast compare, then sort the blocks
    nb = size // _BOOT
    blocks = vals.reshape(nb, _BOOT)
    before = np.tril(np.ones((_BOOT, _BOOT), dtype=bool), -1)  # [i, q] = q < i
    res = np.sum(
        blocks[:, None, :] > blocks[:, :, None],
        axis=2,
        where=before[None],
        dtype=np.int64,
    ).ravel()
    order = np.argsort(blocks, axis=1, kind="stable")
    idx = (order + np.arange(nb, dtype=np.int64)[:, None] * _BOOT).ravel()
    vals = np.take_along_axis(blocks, order, axis=1).ravel()

    big = vals.max() + 2  # row offset: wider than the value range [-1, max]
    new_vals = np.empty(size, dtype=np.int64)
    new_idx = np.empty(size, dtype=np.int64)
    width = _BOOT
    while width < size:
        nb, tail = divmod(size, 2 * width)
        lo = nb * 2 * width
        _merge_rows(vals, idx, new_vals, new_idx, res, big, 0, nb, width, width)
        if tail > width:  # the irregular pair
            _merge_rows(
                vals, idx, new_vals, new_idx, res, big, lo, 1, width, tail - width
            )
        else:  # a lone trailing run (or none) carries over
            new_vals[lo:] = vals[lo:]
            new_idx[lo:] = idx[lo:]
        vals, new_vals = new_vals, vals
        idx, new_idx = new_idx, idx
        width *= 2
    return res[:n]


def lru_depths(cache_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per-access LRU stack depth (1-based); :data:`COLD` on first touch.

    ``cache_ids`` partitions the accesses into independent caches (an
    access only competes with accesses to the same cache); ``keys``
    identify blocks within a cache.  An access with depth ``d`` hits any
    LRU cache of capacity >= ``d`` — the LRU inclusion property.

    The depth of an access at position ``i`` whose key was last used at
    ``p`` is the number of distinct keys touched in ``(p, i]``: the
    window size ``i - p`` less its *repeats*, the accesses ``q`` in the
    window whose own previous use also lies in it (``prev[q] > p``).
    Only re-references pay for that count, exactly:

    - an *immediate repeat* (the key its cache saw last) has depth 1 and
      leaves the stack as it was, so each run of them collapses to its
      first access before the count, and no other depth moves;
    - a cold access has ``prev = -1``, never greater than a reuse's
      ``p >= 0``, so it is never a repeat in anyone's window and the
      inversion count runs over the reuse accesses alone (their previous
      uses stay positions in the collapsed sequence).
    """
    n = len(keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(cache_ids, kind="stable")  # time order kept per cache
    combined = _encode_pairs(np.asarray(cache_ids)[order], np.asarray(keys)[order])
    # equal neighbours are one cache's immediate repeats: the pair
    # encoding includes the cache id
    fresh = np.empty(n, dtype=bool)
    fresh[0] = True
    np.not_equal(combined[1:], combined[:-1], out=fresh[1:])
    prev = _prev_occurrences(combined[fresh])
    reuse = np.flatnonzero(prev >= 0)
    prev_reuse = prev[reuse]
    fresh_depth = np.full(len(prev), COLD, dtype=np.int64)
    fresh_depth[reuse] = (
        reuse - prev_reuse - _count_prev_greater_before(prev_reuse)
    )
    depth = np.ones(n, dtype=np.int64)
    depth[fresh] = fresh_depth
    out = np.empty(n, dtype=np.int64)
    out[order] = depth
    return out


def compute_node_min_capacities(
    jobs: np.ndarray,
    nodes: np.ndarray,
    files: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
) -> np.ndarray:
    """Per read request, the smallest compute-node LRU cache it hits.

    Each ``(job, node)`` pair has its own cache of ``(file, block)``
    buffers, and a request hits when every block it spans is resident
    on arrival.  Its blocks are distinct, so that holds iff the largest
    LRU depth over them is at most the capacity; a request with a cold
    block gets :data:`COLD`.  All five inputs are parallel per-request
    arrays in time order.
    """
    spans = expand_spans(files, first, last)
    cache_ids = _encode_pairs(jobs, nodes)[spans.req]
    depths = lru_depths(cache_ids, _encode_pairs(spans.file, spans.block))
    return spans.max_over_requests(depths)


# -- I/O-node profile (Figure 9 at all capacities) ---------------------------


@dataclass(frozen=True)
class IONodeStackProfile:
    """One-pass summary yielding exact Figure 9 LRU results at any capacity.

    Per I/O node, holds the sorted minimum capacity (max stack depth over
    the sub-request's blocks) at which each sub-request becomes a full
    hit; a replay at ``total_buffers`` is then a pair of binary searches
    per node.
    """

    n_io_nodes: int
    #: per node: sorted min-capacity of each *read* sub-request
    read_depths: tuple[np.ndarray, ...]
    #: per node: sorted min-capacity of each sub-request (reads + writes)
    all_depths: tuple[np.ndarray, ...]

    @property
    def read_sub_requests(self) -> int:
        return int(sum(len(d) for d in self.read_depths))

    @property
    def all_sub_requests(self) -> int:
        return int(sum(len(d) for d in self.all_depths))

    def result_at(self, total_buffers: int) -> IONodeCacheResult:
        """The exact LRU result at one total buffer count."""
        read_hits = all_hits = 0
        for node, cap in enumerate(_node_capacities(total_buffers, self.n_io_nodes)):
            read_hits += int(np.searchsorted(self.read_depths[node], cap, side="right"))
            all_hits += int(np.searchsorted(self.all_depths[node], cap, side="right"))
        return IONodeCacheResult(
            policy="lru",
            n_io_nodes=self.n_io_nodes,
            total_buffers=int(total_buffers),
            read_sub_requests=self.read_sub_requests,
            read_hits=read_hits,
            all_sub_requests=self.all_sub_requests,
            all_hits=all_hits,
        )


def io_node_lru_depths(
    files: np.ndarray, first: np.ndarray, last: np.ndarray, n_io_nodes: int
) -> tuple[BlockSpans, np.ndarray, np.ndarray]:
    """The I/O-node layer's one LRU pass: the stream's blocks, each
    block's node, and its depth in that node's cache (Figure 9's profile
    and the §5 disk experiments all score their caches from these)."""
    spans = expand_spans(files, first, last)
    io = spans.io_nodes(n_io_nodes)
    depths = lru_depths(io, _encode_pairs(spans.file, spans.block))
    if obs.enabled():
        obs.add("caching.stackdist.passes")
        obs.add("caching.stackdist.block_accesses", len(depths))
        obs.add("caching.stackdist.cold_accesses", int((depths == COLD).sum()))
        obs.add("caching.stackdist.lru.passes")
        obs.hist_many("caching.stackdist.depth_blocks", depths[depths != COLD])
    return spans, io, depths


def io_node_lru_misses(
    io: np.ndarray, depths: np.ndarray, total_buffers: int, n_io_nodes: int
) -> np.ndarray:
    """Per block access, whether its depth exceeds its node's share of
    ``total_buffers`` (a cold access, and every access to a node with no
    buffers, misses)."""
    capacities = np.asarray(_node_capacities(total_buffers, n_io_nodes), dtype=np.int64)
    return depths > capacities[io]


def io_node_stack_profile(
    frame=None,
    n_io_nodes: int = 10,
    stream: tuple[np.ndarray, ...] | None = None,
) -> IONodeStackProfile:
    """One LRU pass over the trace → Figure 9 at every buffer count.

    ``stream`` (from :func:`repro.caching.io_node.request_stream`) lets
    callers reuse a precomputed request stream; otherwise it is derived
    from ``frame``.
    """
    files, first, last, _nodes, is_read = _resolve_stream(frame, stream)
    with obs.span("caching/stackdist/io_node_profile"):
        spans, _io, depths = io_node_lru_depths(files, first, last, n_io_nodes)
        subs = spans.sub_requests(n_io_nodes)
        # a sub-request becomes a full hit once every block it spans is
        # resident: min sufficient capacity = max depth over its blocks
        min_caps = subs.max_over_blocks(depths)
        sub_read = np.asarray(is_read, dtype=bool)[subs.req]
        read_depths = []
        all_depths = []
        for node in range(n_io_nodes):
            on_node = subs.io_node == node
            read_depths.append(np.sort(min_caps[on_node & sub_read]))
            all_depths.append(np.sort(min_caps[on_node]))
    return IONodeStackProfile(
        n_io_nodes=n_io_nodes,
        read_depths=tuple(read_depths),
        all_depths=tuple(all_depths),
    )


# -- compute-node profile (Figure 8 at all capacities) -----------------------


@dataclass(frozen=True)
class ComputeNodeStackProfile:
    """One-pass summary yielding exact Figure 8 results at any capacity."""

    #: sorted job ids with at least one read-only read
    job_ids: np.ndarray
    #: per job (aligned with job_ids): request count
    job_request_counts: np.ndarray
    #: per job: sorted min-capacity of each request
    job_depths: tuple[np.ndarray, ...]

    def result_at(self, buffers: int = 1) -> ComputeNodeCacheResult:
        """Figure 8 at one buffer count per compute node."""
        if buffers < 1:
            raise CacheConfigError("need at least one buffer")
        hits = np.asarray(
            [int(np.searchsorted(d, buffers, side="right")) for d in self.job_depths],
            dtype=np.int64,
        )
        return ComputeNodeCacheResult(
            buffers=buffers,
            job_ids=self.job_ids,
            job_hit_rates=hits / self.job_request_counts,
            job_request_counts=self.job_request_counts,
            total_hits=int(hits.sum()),
            total_requests=int(self.job_request_counts.sum()),
        )

    def sweep(self, buffer_counts) -> list[ComputeNodeCacheResult]:
        """Figure 8 at every requested buffer count, from the one pass."""
        return [self.result_at(int(b)) for b in buffer_counts]


def compute_node_stack_profile(frame: TraceFrame) -> ComputeNodeStackProfile:
    """One pass over the read-only reads → Figure 8 at every buffer count."""
    with obs.span("caching/stackdist/compute_node_profile"):
        ro = read_only_file_ids(frame)
        reads = frame.reads
        reads = reads[np.isin(reads["file"], ro)]
        if len(reads) == 0:
            raise CacheConfigError("no read-only reads in trace")
        if obs.enabled():
            obs.add("caching.stackdist.passes")
            obs.add("caching.stackdist.compute_node_reads", len(reads))
        offsets = reads["offset"].astype(np.int64)
        sizes = reads["size"].astype(np.int64)
        jobs = reads["job"].astype(np.int64)
        # a zero-size read counts as a one-block request
        min_caps = compute_node_min_capacities(
            jobs,
            reads["node"].astype(np.int64),
            reads["file"].astype(np.int64),
            offsets // BLOCK_SIZE,
            np.maximum(offsets + sizes - 1, offsets) // BLOCK_SIZE,
        )
        order = np.lexsort((min_caps, jobs))
        jobs_sorted = jobs[order]
        caps_sorted = min_caps[order]
        job_ids, starts, counts = np.unique(
            jobs_sorted, return_index=True, return_counts=True
        )
        job_depths = tuple(
            caps_sorted[lo : lo + cnt]
            for lo, cnt in zip(starts.tolist(), counts.tolist())
        )
    return ComputeNodeStackProfile(
        job_ids=job_ids.astype(np.int64),
        job_request_counts=counts.astype(np.int64),
        job_depths=job_depths,
    )
