"""I/O-node cache simulation: Figure 9.

The I/O-node caches serve *all* compute nodes, all files, and all jobs.
Files are striped round-robin at one-block granularity, so block ``b`` of
any file is served (and cached) by I/O node ``b mod n``.  Compute nodes
send each request directly to the I/O nodes it touches, so a request
decomposes into one *sub-request* per I/O node; consistent with the
paper's hit definition on the compute-node side, a sub-request **hits**
when every block it needs is already in that I/O node's cache.

The reported hit rate is over **read** sub-requests: a buffer cache's
job at the I/O node is to avoid disk *reads*; writes are absorbed
write-behind regardless (they flow through the simulation, populating
and evicting buffers, but are not scored).  Since the read workload is
dominated by requests smaller than one block, a modest cache reaches a
90 % hit rate despite the large cold streams that carry most of the
bytes — the hits come from intrablock runs and from different nodes
touching the same striped block close together in time.

Figure 9's published shape: with LRU, ~4000 4 KB buffers across the
system reach a 90 % hit rate; FIFO needs nearly 20000, because it evicts
hot blocks on arrival schedule rather than on locality.  How the buffers
are spread across 1-20 I/O nodes barely changes the hit rate.

The policy picks the one engine that scores it, whatever the entry
point (:func:`simulate_io_node_caches`, :func:`sweep_buffer_counts`,
and through them the §4.8 experiment).  LRU is a stack algorithm, so the
single-pass **stack-distance** profile of :mod:`repro.caching.stackdist`
yields its exact result at every buffer count from one traversal of the
trace.  FIFO is not, so :func:`_fifo_results` replays it over dense
integer keys, one loop per buffer count; OPT and the interprocess policy
take the per-capacity dictionary **replay**
(:func:`replay_io_node_caches`), once per count.  For LRU and FIFO that
replay is the oracle the tests hold the engines to.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.caching.blockspan import _encode_pairs, expand_spans
from repro.caching.policies import (
    OptimalPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.caching.results import HitRateCurve
from repro.errors import CacheConfigError
from repro.trace.frame import TraceFrame
from repro.trace.records import EventKind
from repro.util.units import BLOCK_SIZE

@dataclass(frozen=True)
class IONodeCacheResult:
    """Outcome of one I/O-node cache simulation."""

    policy: str
    n_io_nodes: int
    total_buffers: int
    read_sub_requests: int
    read_hits: int
    all_sub_requests: int
    all_hits: int

    @property
    def hit_rate(self) -> float:
        """Read sub-request hit rate (the Figure 9 metric)."""
        return self.read_hits / self.read_sub_requests if self.read_sub_requests else 0.0

    @property
    def all_traffic_hit_rate(self) -> float:
        """Hit rate over all sub-requests, writes included — a harsher
        view in which cold write streams count as misses."""
        return self.all_hits / self.all_sub_requests if self.all_sub_requests else 0.0


def _nonzero_transfers(frame: TraceFrame) -> np.ndarray:
    """READ/WRITE events with a positive size, in time order."""
    tr = frame.transfers
    if len(tr) == 0:
        raise CacheConfigError("no transfers in trace")
    tr = tr[tr["size"].astype(np.int64) > 0]
    if len(tr) == 0:
        raise CacheConfigError("only zero-size transfers in trace")
    return tr


def _nonzero_transfer_chunks(source) -> np.ndarray:
    """Out-of-core variant of :func:`_nonzero_transfers`: concatenate
    only the (usually sparse) transfer rows of each chunk, never the
    whole event table."""
    parts = []
    saw_transfer = False
    for chunk in source.iter_chunks():
        kind = chunk["kind"]
        tmask = (kind == int(EventKind.READ)) | (kind == int(EventKind.WRITE))
        if tmask.any():
            saw_transfer = True
            keep = chunk[tmask]
            keep = keep[keep["size"].astype(np.int64) > 0]
            if len(keep):
                parts.append(keep)
    if not saw_transfer:
        raise CacheConfigError("no transfers in trace")
    if not parts:
        raise CacheConfigError("only zero-size transfers in trace")
    return np.concatenate(parts)


def request_stream(
    frame, block_size: int = BLOCK_SIZE
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(file, first_block, last_block, node, is_read) per transfer, in
    time order.

    ``frame`` may be a :class:`~repro.trace.frame.TraceFrame` or any
    :class:`~repro.trace.store.TraceSource`; a source is streamed chunk
    by chunk, so only the transfer columns ever occupy memory at once.
    Zero-size transfers are dropped (they touch no blocks).  Blocks are
    ``block_size`` bytes, the striping unit every simulator downstream
    counts in.
    """
    if isinstance(frame, TraceFrame):
        tr = _nonzero_transfers(frame)
    else:
        tr = _nonzero_transfer_chunks(frame)
    return _stream_columns(tr, block_size)


def _stream_columns(
    tr: np.ndarray, block_size: int = BLOCK_SIZE
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`request_stream`'s columns of already-filtered transfers."""
    return (
        tr["file"].astype(np.int64),
        (tr["offset"] // block_size).astype(np.int64),
        ((tr["offset"] + tr["size"] - 1) // block_size).astype(np.int64),
        tr["node"].astype(np.int64),
        tr["kind"] == int(EventKind.READ),
    )


def _resolve_stream(frame, stream: tuple[np.ndarray, ...] | None) -> tuple[np.ndarray, ...]:
    if stream is not None:
        return stream
    if frame is None:
        raise CacheConfigError("need a frame or a precomputed stream")
    return request_stream(frame)


def _node_capacities(total_buffers: int, n_io_nodes: int) -> list[int]:
    """Each I/O node's share of ``total_buffers``: an even split, with
    the first ``total_buffers % n_io_nodes`` nodes holding one more."""
    if total_buffers < 0:
        raise CacheConfigError("total_buffers must be non-negative")
    if n_io_nodes <= 0:
        raise CacheConfigError("need at least one I/O node")
    base, extra = divmod(int(total_buffers), n_io_nodes)
    return [base + 1 if node < extra else base for node in range(n_io_nodes)]


def _build_caches(
    policy: str, total_buffers: int, n_io_nodes: int
) -> list[ReplacementPolicy]:
    return [
        make_policy(policy, cap) for cap in _node_capacities(total_buffers, n_io_nodes)
    ]


def _prime_opt(
    caches: list[ReplacementPolicy],
    files: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
    n_io_nodes: int,
) -> None:
    """Give each OPT cache its own future block sequence."""
    spans = expand_spans(files, first, last)
    io = spans.io_nodes(n_io_nodes)
    sequences: list[list[tuple[int, int]]] = [[] for _ in range(n_io_nodes)]
    for f, b, node in zip(spans.file.tolist(), spans.block.tolist(), io.tolist()):
        sequences[node].append((f, b))
    for cache, seq in zip(caches, sequences):
        assert isinstance(cache, OptimalPolicy)
        cache.prime(seq)


def replay_io_node_caches(
    frame,
    total_buffers: int,
    n_io_nodes: int = 10,
    policy: str = "lru",
    stream: tuple[np.ndarray, ...] | None = None,
) -> IONodeCacheResult:
    """Replay Figure 9 at one (policy, buffer count) setting through
    per-block dictionary caches.

    OPT's and the interprocess policy's engine, and for LRU and FIFO
    the oracle their engines are held to.  ``stream`` lets callers reuse
    one precomputed request stream; when it is supplied the ``frame``
    may be ``None``.
    """
    stream = _resolve_stream(frame, stream)
    policy = policy.lower()
    files, first, last, nodes, is_read = stream
    caches = _build_caches(policy, total_buffers, n_io_nodes)
    if policy == "opt":
        _prime_opt(caches, files, first, last, n_io_nodes)
    interprocess = policy == "interprocess"

    spans = expand_spans(files, first, last)
    starts = spans.starts.tolist()
    blocks = spans.block.tolist()
    ios = spans.io_nodes(n_io_nodes).tolist()

    read_subs = read_hits = 0
    all_subs = all_hits = 0
    for r, (f, node, rd) in enumerate(
        zip(files.tolist(), nodes.tolist(), is_read.tolist())
    ):
        lo, hi = starts[r], starts[r + 1]
        if hi - lo == 1:
            # fast path: sub-block request, one I/O node, one block
            cache = caches[ios[lo]]
            key = (f, blocks[lo])
            present = key in cache
            if interprocess:
                cache.access_from(key, node)
            else:
                cache.access(key)
            all_subs += 1
            all_hits += present
            if rd:
                read_subs += 1
                read_hits += present
            continue
        full_hit: dict[int, bool] = {}
        for i in range(lo, hi):
            io = ios[i]
            cache = caches[io]
            key = (f, blocks[i])
            present = key in cache
            full_hit[io] = full_hit.get(io, True) and present
            if interprocess:
                cache.access_from(key, node)
            else:
                cache.access(key)
        n_full = sum(1 for ok in full_hit.values() if ok)
        all_subs += len(full_hit)
        all_hits += n_full
        if rd:
            read_subs += len(full_hit)
            read_hits += n_full
    if obs.enabled():
        obs.add("caching.replay.simulations")
        obs.add("caching.replay.sub_requests", all_subs)
        obs.add("caching.replay.hits", all_hits)
        obs.add(f"caching.replay.{policy}.read_hits", read_hits)
        obs.add(f"caching.replay.{policy}.read_sub_requests", read_subs)
    return IONodeCacheResult(
        policy=policy,
        n_io_nodes=n_io_nodes,
        total_buffers=total_buffers,
        read_sub_requests=read_subs,
        read_hits=read_hits,
        all_sub_requests=all_subs,
        all_hits=all_hits,
    )


def _fifo_results(
    stream: tuple[np.ndarray, ...], counts: Sequence[int], n_io_nodes: int
) -> list[IONodeCacheResult]:
    """FIFO's :func:`replay_io_node_caches` result at each count, exactly.

    FIFO needs no queue: a node of capacity ``C`` holds exactly the blocks
    of its last ``C`` misses, so a block inserted when its node had taken
    ``m`` misses stays resident while the node's miss count ``M`` satisfies
    ``M - m <= C``.  A sub-request hits iff none of its blocks missed.
    """
    files, first, last, _nodes, is_read = stream
    spans = expand_spans(files, first, last)
    io = spans.io_nodes(n_io_nodes)
    uniq, keys = np.unique(_encode_pairs(spans.file, spans.block), return_inverse=True)
    subs = spans.sub_requests(n_io_nodes)
    sub_read = np.asarray(is_read, dtype=bool)[subs.req]
    n_read = int(sub_read.sum())
    # each node's accesses in time order, less immediate repeats (the
    # key the node saw last: a hit at any capacity >= 1 that changes
    # nothing; a key lives on one node, so equal neighbours are repeats)
    order = np.argsort(io, kind="stable")
    srt = keys[order]
    fresh = np.concatenate(([True], srt[1:] != srt[:-1]))
    bounds = np.searchsorted(io[order], np.arange(n_io_nodes + 1)).tolist()
    per_node = [
        (order[lo:hi], order[lo:hi][fresh[lo:hi]].tolist(),
         srt[lo:hi][fresh[lo:hi]].tolist())
        for lo, hi in zip(bounds, bounds[1:])
    ]

    results = []
    for count in counts:
        capacities = _node_capacities(count, n_io_nodes)
        # per key, the miss count up to which it stays resident (-1: never
        # inserted); a key lives on one node, so one list serves them all
        resident_until = [-1] * len(uniq)
        missed: list[int] = []
        for cap, (every, positions, node_keys) in zip(capacities, per_node):
            if cap == 0:  # every access misses, repeats included
                missed.extend(every.tolist())
                continue
            m = 0
            for pos, key in zip(positions, node_keys):
                if m > resident_until[key]:
                    resident_until[key] = m + cap
                    m += 1
                    missed.append(pos)
        hit = np.bincount(subs.block_sub[missed], minlength=len(subs)) == 0
        all_hits = int(hit.sum())
        read_hits = int(np.count_nonzero(hit & sub_read))
        if obs.enabled():
            obs.add("caching.replay.simulations")
            obs.add("caching.replay.sub_requests", len(subs))
            obs.add("caching.replay.hits", all_hits)
            obs.add("caching.replay.fifo.read_hits", read_hits)
            obs.add("caching.replay.fifo.read_sub_requests", n_read)
        results.append(IONodeCacheResult(
            "fifo", n_io_nodes, count, read_sub_requests=n_read, read_hits=read_hits,
            all_sub_requests=len(subs), all_hits=all_hits,
        ))
    return results


def _io_node_results(
    stream: tuple[np.ndarray, ...], counts: Sequence[int], n_io_nodes: int, policy: str
) -> list[IONodeCacheResult]:
    """Each count's exact result, from the one engine the policy has: one
    stack-distance pass for LRU, the dense-key replay for FIFO, and the
    dictionary replay once per count for OPT and interprocess."""
    # imported lazily: stackdist builds on this module's stream/result types
    from repro.caching.stackdist import io_node_stack_profile

    if min(counts, default=0) < 0:
        raise CacheConfigError("total_buffers must be non-negative")
    policy = policy.lower()
    if policy == "lru":
        with obs.span("caching/sweep/stackdist"):
            profile = io_node_stack_profile(n_io_nodes=n_io_nodes, stream=stream)
            return [profile.result_at(count) for count in counts]
    with obs.span("caching/sweep/replay"):
        if policy == "fifo":
            return _fifo_results(stream, counts, n_io_nodes)
        return [
            replay_io_node_caches(None, count, n_io_nodes, policy, stream=stream)
            for count in counts
        ]


def simulate_io_node_caches(
    frame,
    total_buffers: int,
    n_io_nodes: int = 10,
    policy: str = "lru",
    stream: tuple[np.ndarray, ...] | None = None,
) -> IONodeCacheResult:
    """Figure 9 at one (policy, buffer count) setting: the one-count view
    of :func:`sweep_buffer_counts`, from the same engine.

    ``stream`` lets callers reuse one precomputed request stream; when it
    is supplied the ``frame`` may be ``None``.  The result's ``policy``
    is the lowercased name.
    """
    stream = _resolve_stream(frame, stream)
    return _io_node_results(stream, [total_buffers], n_io_nodes, policy)[0]


def sweep_buffer_counts(
    frame,
    buffer_counts: Sequence[int],
    n_io_nodes: int = 10,
    policy: str = "lru",
    stream: tuple[np.ndarray, ...] | None = None,
) -> HitRateCurve:
    """One Figure 9 line: hit rate across a range of total buffer counts.

    LRU is a stack algorithm: one stack-distance pass scores every
    count, bit-equal to replaying each.  The other policies replay once
    per count: FIFO over dense integer keys (:func:`_fifo_results`), OPT
    and interprocess through :func:`replay_io_node_caches`.  The curve's
    ``policy`` is the lowercased name.
    """
    stream = _resolve_stream(frame, stream)
    counts = list(buffer_counts)
    results = _io_node_results(stream, counts, n_io_nodes, policy)
    return HitRateCurve(
        policy=policy.lower(),
        n_io_nodes=n_io_nodes,
        buffer_counts=np.asarray(counts, dtype=np.int64),
        hit_rates=np.asarray([r.hit_rate for r in results]),
    )
