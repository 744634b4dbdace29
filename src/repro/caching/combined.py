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
from repro.caching.compute_node import read_only_file_ids
from repro.caching.io_node import _nonzero_transfers, _stream_columns, simulate_io_node_caches
from repro.caching.stackdist import compute_node_min_capacities
from repro.errors import CacheConfigError
from repro.trace.frame import TraceFrame


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


def simulate_combined(
    frame: TraceFrame,
    compute_buffers: int = 1,
    io_buffers_per_node: int = 50,
    n_io_nodes: int = 10,
    policy: str = "lru",
) -> CombinedResult:
    """Run both cache layers over the trace, with and without filtering.

    Reads of read-only files pass through the issuing node's compute
    cache first (one LRU cache per ``(job, node)``); a fully-satisfied
    request is absorbed and never reaches the I/O nodes.  Everything
    else (writes, reads of writable files, and partially-missed reads)
    goes to the I/O nodes in full, as CFS would send it.

    Each layer runs on its own engine.  The compute layer is one LRU
    stack-distance pass: a request is absorbed when its minimum capacity
    is at most ``compute_buffers``.  The I/O layer is
    :func:`~repro.caching.io_node.simulate_io_node_caches` twice, on the
    whole request stream and on the stream less the absorbed requests.
    """
    if compute_buffers < 1:
        raise CacheConfigError("need at least one compute-node buffer")
    with obs.span("caching/combined"):
        with obs.span("caching/combined/compute"):
            ro = read_only_file_ids(frame)
            transfers = _nonzero_transfers(frame)
            stream = _stream_columns(transfers)
            files, first, last, nodes, is_read = stream
            compute = is_read & np.isin(files, ro)
            min_caps = compute_node_min_capacities(
                transfers["job"].astype(np.int64)[compute], nodes[compute],
                files[compute], first[compute], last[compute],
            )
            absorbed = np.zeros(len(files), dtype=bool)
            absorbed[compute] = min_caps <= compute_buffers
            n_absorbed = int(absorbed.sum())
            comp_reqs = len(min_caps)

        total = io_buffers_per_node * n_io_nodes
        io_without = simulate_io_node_caches(None, total, n_io_nodes, policy, stream=stream)
        forwarded = tuple(column[~absorbed] for column in stream)
        io_with = simulate_io_node_caches(None, total, n_io_nodes, policy, stream=forwarded)

        if obs.enabled():
            obs.add("caching.combined.simulations")
            obs.add("caching.combined.requests_absorbed", n_absorbed)
            obs.add("caching.combined.compute_requests", comp_reqs)
        return CombinedResult(
            io_hit_rate_without=io_without.hit_rate,
            io_hit_rate_with=io_with.hit_rate,
            compute_hit_rate=n_absorbed / comp_reqs if comp_reqs else 0.0,
            requests_absorbed=n_absorbed,
            sub_requests_without=io_without.read_sub_requests,
            sub_requests_with=io_with.read_sub_requests,
        )
