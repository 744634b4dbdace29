"""Vectorized request → block expansion shared by the cache simulators.

Every trace-driven simulator in :mod:`repro.caching` decomposes each
transfer into the 4 KB blocks it spans and routes each block to the I/O
node that owns it under round-robin striping.  Doing that with a
per-request ``range(b0, b1 + 1)`` Python loop is the single hottest
pattern in the package, so this module computes the expansion once, in
numpy, as flat parallel arrays:

``request → (file, block, io_node, sub_request_id)``

A :class:`BlockSpans` carries the per-block arrays plus the request
boundaries, so replay simulators can still walk requests in time order
(slicing precomputed arrays instead of re-deriving blocks), while the
single-pass stack-distance engine (:mod:`repro.caching.stackdist`)
consumes the flat arrays directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CacheConfigError


@dataclass(frozen=True)
class SubRequests:
    """The (request × I/O node) decomposition of a block expansion.

    A *sub-request* is the portion of one request served by one I/O
    node; it is the unit over which Figure 9's hit rate is defined (a
    sub-request hits only when every block it needs is present).
    """

    #: per-block index into the sub-request arrays below
    block_sub: np.ndarray
    #: originating request index, per sub-request
    req: np.ndarray
    #: owning I/O node, per sub-request
    io_node: np.ndarray

    def __len__(self) -> int:
        return len(self.req)

    def max_over_blocks(self, values: np.ndarray) -> np.ndarray:
        """Per-sub-request maximum of a per-block array."""
        order = np.argsort(self.block_sub, kind="stable")
        bounds = np.searchsorted(self.block_sub[order], np.arange(len(self.req)))
        return np.maximum.reduceat(values[order], bounds)


@dataclass(frozen=True)
class BlockSpans:
    """Per-block arrays of a request stream, in time order.

    The blocks of request ``r`` occupy ``[starts[r], starts[r + 1])`` in
    the flat arrays, in ascending block order (matching the order the
    replay simulators touch them).
    """

    #: originating request index, per block
    req: np.ndarray
    #: file id, per block
    file: np.ndarray
    #: file block number, per block
    block: np.ndarray
    #: request boundaries, length ``n_requests + 1``
    starts: np.ndarray

    def __len__(self) -> int:
        return len(self.block)

    @property
    def n_requests(self) -> int:
        return len(self.starts) - 1

    def io_nodes(self, n_io_nodes: int) -> np.ndarray:
        """Owning I/O node per block under round-robin striping."""
        if n_io_nodes <= 0:
            raise CacheConfigError("need at least one I/O node")
        return self.block % n_io_nodes

    def sub_requests(self, n_io_nodes: int) -> SubRequests:
        """Group blocks into (request, I/O node) sub-requests."""
        io = self.io_nodes(n_io_nodes)
        key = self.req * np.int64(n_io_nodes) + io
        uniq, inv = np.unique(key, return_inverse=True)
        return SubRequests(
            block_sub=inv.astype(np.int64),
            req=(uniq // n_io_nodes).astype(np.int64),
            io_node=(uniq % n_io_nodes).astype(np.int64),
        )

    def max_over_requests(self, values: np.ndarray) -> np.ndarray:
        """Per-request maximum of a per-block array."""
        return np.maximum.reduceat(values, self.starts[:-1])


def expand_spans(
    files: np.ndarray, first: np.ndarray, last: np.ndarray
) -> BlockSpans:
    """Expand ``(file, first_block, last_block)`` requests into blocks.

    All three inputs are parallel per-request arrays; ``last`` must be
    >= ``first`` elementwise (every request touches at least one block).
    """
    files = np.asarray(files, dtype=np.int64)
    first = np.asarray(first, dtype=np.int64)
    last = np.asarray(last, dtype=np.int64)
    if not (len(files) == len(first) == len(last)):
        raise CacheConfigError("span arrays must be parallel")
    if np.any(last < first):
        raise CacheConfigError("request with last block before first block")
    lens = last - first + 1
    starts = np.zeros(len(files) + 1, dtype=np.int64)
    np.cumsum(lens, out=starts[1:])
    req = np.repeat(np.arange(len(files), dtype=np.int64), lens)
    block = np.arange(starts[-1], dtype=np.int64) - starts[req] + first[req]
    return BlockSpans(req=req, file=files[req], block=block, starts=starts)


def _encode_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Injective int64 encoding of (a, b) pairs.

    Fast path: plain ``a * (max(b) + 1) + b`` when the product cannot
    overflow; falls back to factorizing both columns otherwise.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if len(a) == 0:
        return np.zeros(0, dtype=np.int64)
    a_min, a_max = int(a.min()), int(a.max())
    b_min, b_max = int(b.min()), int(b.max())
    if a_min >= 0 and b_min >= 0 and (a_max + 1) * (b_max + 1) < (1 << 62):
        return a * np.int64(b_max + 1) + b
    _, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    return ia.astype(np.int64) * np.int64(len(ub)) + ib.astype(np.int64)
