"""Sequential prefetching at the I/O nodes.

The paper's related work (§2.3) notes that prefetching helps in CFS and
that Miller & Katz saw benefit from prefetching even where caching
failed.  This module adds one-block-lookahead (OBL) style prefetching to
the I/O-node cache simulation: on a miss of file block ``b``, the I/O
node also fetches the *next blocks of the same file that it owns*
(``b + n, b + 2n, ...`` under round-robin striping) up to a configured
depth.

Prefetching pays off on the workload's sequential streams (whole-file
and blocked reads) and does nothing for the sub-block record traffic the
cache already captures, so its benefit concentrates exactly where plain
caching is weakest — the paper's large cold reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.caching.blockspan import expand_spans
from repro.caching.io_node import _build_caches, _resolve_stream
from repro.caching.policies import ReplacementPolicy
from repro.errors import CacheConfigError
from repro.trace.frame import TraceFrame


@dataclass(frozen=True)
class PrefetchResult:
    """Outcome of one prefetching simulation."""

    policy: str
    n_io_nodes: int
    total_buffers: int
    depth: int
    read_sub_requests: int
    read_hits: int
    prefetches_issued: int
    prefetches_used: int

    @property
    def hit_rate(self) -> float:
        """Read sub-request hit rate (same metric as Figure 9)."""
        return self.read_hits / self.read_sub_requests if self.read_sub_requests else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of prefetched blocks that were touched before
        eviction (wasted prefetches pollute the cache and the disk)."""
        if self.prefetches_issued == 0:
            return 0.0
        return self.prefetches_used / self.prefetches_issued


class _PrefetchState:
    """Per-I/O-node bookkeeping of outstanding prefetched blocks."""

    __slots__ = ("pending",)

    def __init__(self) -> None:
        self.pending: set[tuple[int, int]] = set()

    def install(self, cache: ReplacementPolicy, key: tuple[int, int]) -> bool:
        """Install a prefetched block; returns True if newly fetched."""
        if key in cache:
            return False
        cache.touch(key)
        self.pending.add(key)
        return True

    def consume(self, key: tuple[int, int]) -> bool:
        """Mark a prefetched block as used on first demand touch."""
        if key in self.pending:
            self.pending.discard(key)
            return True
        return False


def simulate_io_node_prefetch(
    frame: TraceFrame | None,
    total_buffers: int,
    n_io_nodes: int = 10,
    policy: str = "lru",
    depth: int = 1,
    stream: tuple[np.ndarray, ...] | None = None,
) -> PrefetchResult:
    """The Figure 9 simulation with ``depth``-block lookahead per I/O node.

    ``depth=0`` degenerates to the plain simulation (useful as the
    baseline in the same units).  ``stream`` lets callers reuse one
    precomputed request stream; the ``frame`` may then be ``None``.
    """
    if depth < 0:
        raise CacheConfigError("prefetch depth must be non-negative")
    with obs.span("caching/prefetch"):
        files, first, last, nodes, is_read = _resolve_stream(frame, stream)
        caches = _build_caches(policy, total_buffers, n_io_nodes)
        states = [_PrefetchState() for _ in range(n_io_nodes)]

        spans = expand_spans(files, first, last)
        starts = spans.starts.tolist()
        blocks = spans.block.tolist()
        ios = spans.io_nodes(n_io_nodes).tolist()

        read_subs = read_hits = 0
        issued = used = 0
        for r, (f, rd) in enumerate(zip(files.tolist(), is_read.tolist())):
            touched: dict[int, bool] = {}
            trigger_blocks: list[int] = []
            for i in range(starts[r], starts[r + 1]):
                b = blocks[i]
                io = ios[i]
                cache = caches[io]
                key = (f, b)
                present = key in cache
                if present and states[io].consume(key):
                    used += 1
                    # tagged OBL: first use of a prefetched block keeps the
                    # lookahead running down the sequential stream
                    trigger_blocks.append(b)
                touched[io] = touched.get(io, True) and present
                cache.access(key)
                if not present:
                    trigger_blocks.append(b)
            if rd:
                read_subs += len(touched)
                read_hits += sum(1 for ok in touched.values() if ok)
                # misses and consumed prefetches trigger lookahead on the
                # owning I/O node
                for b in trigger_blocks:
                    io = b % n_io_nodes
                    for ahead in range(1, depth + 1):
                        nxt = b + ahead * n_io_nodes
                        if states[io].install(caches[io], (f, nxt)):
                            issued += 1
        return PrefetchResult(
            policy=policy,
            n_io_nodes=n_io_nodes,
            total_buffers=total_buffers,
            depth=depth,
            read_sub_requests=read_subs,
            read_hits=read_hits,
            prefetches_issued=issued,
            prefetches_used=used,
        )


def prefetch_benefit(
    frame: TraceFrame | None,
    total_buffers: int,
    n_io_nodes: int = 10,
    depth: int = 1,
    stream: tuple[np.ndarray, ...] | None = None,
) -> tuple[PrefetchResult, PrefetchResult]:
    """(baseline, prefetching) results at identical cache settings.

    The request stream is derived once and shared by both runs."""
    stream = _resolve_stream(frame, stream)
    base = simulate_io_node_prefetch(
        None, total_buffers, n_io_nodes=n_io_nodes, depth=0, stream=stream,
    )
    pref = simulate_io_node_prefetch(
        None, total_buffers, n_io_nodes=n_io_nodes, depth=depth, stream=stream,
    )
    return base, pref
