"""Detecting strided runs in request streams.

Greedy maximal-run coalescing: walk a (file, node) stream in issue order
and extend the current strided run while the request size and the start-
to-start stride stay constant.  Each run becomes one
:class:`~repro.strided.requests.StridedRequest`.  Because the workload's
files overwhelmingly use one or two request sizes and at most one
interval size (Tables 2-3), this simple detector already collapses most
streams to a handful of strided requests.

:func:`coalesce_runs` precomputes the break candidates (size changes,
stride changes, non-extendable first pairs) with numpy and walks *runs*
instead of elements; :func:`coalesce_stream` turns its runs into
strided requests, and :func:`coalesce_trace` uses it over the whole
trace.  The per-element greedy loop is the test oracle
``tests/strided_oracle.py``, and the hypothesis suite asserts the two
agree on arbitrary streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import AnalysisError
from repro.strided.requests import StridedRequest
from repro.trace.frame import TraceFrame


def coalesce_runs(
    offsets: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy run decomposition of one stream, vectorized.

    Returns ``(starts, counts)``: element indices where each run begins
    and the run lengths.  A run of length > 1 starting at element ``p``
    has stride ``offsets[p+1] - offsets[p]``; singletons take their own
    size as the stride.

    The greedy walk cannot be expressed as a pure boundary predicate
    (whether a pair can *extend* depends on where its run started), but
    every run ends at a precomputable break candidate, so the Python loop
    here is over runs, not elements.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if offsets.shape != sizes.shape:
        raise AnalysisError("offsets and sizes must be parallel")
    n = len(offsets)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if n == 1:
        return np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)

    ds = np.diff(offsets)
    size_same = sizes[1:] == sizes[:-1]
    # pair_ok[i]: elements (i, i+1) may start a run with stride ds[i]
    pair_ok = size_same & (ds >= sizes[:-1])
    # chain_brk[i]: a run whose previous pair had stride ds[i-1] cannot
    # absorb element i+1
    chain_brk = np.ones(n - 1, dtype=bool)
    if n > 2:
        chain_brk[1:] = ~size_same[1:] | (ds[1:] != ds[:-1])
    breaks = np.flatnonzero(chain_brk)

    starts: list[int] = []
    counts: list[int] = []
    pos = 0
    while pos < n:
        if pos < n - 1 and pair_ok[pos]:
            j = int(np.searchsorted(breaks, pos, side="right"))
            # the run uses diffs pos..b-1 (elements pos..b); with no break
            # after pos it runs through the final element
            end = int(breaks[j]) if j < len(breaks) else n - 1
            starts.append(pos)
            counts.append(end - pos + 1)
            pos = end + 1
        else:
            starts.append(pos)
            counts.append(1)
            pos += 1
    return np.asarray(starts, dtype=np.int64), np.asarray(counts, dtype=np.int64)


def coalesce_stream(
    offsets: np.ndarray, sizes: np.ndarray
) -> list[StridedRequest]:
    """Coalesce one node's in-order request stream into strided requests.

    Only forward, non-overlapping strides are folded (a re-read or a
    backward seek starts a new run), so the result is replayable in
    order.  Each run of :func:`coalesce_runs` becomes one request.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    starts, counts = coalesce_runs(offsets, sizes)
    out: list[StridedRequest] = []
    for p, c in zip(starts.tolist(), counts.tolist()):
        stride = int(offsets[p + 1] - offsets[p]) if c > 1 else int(sizes[p])
        out.append(
            StridedRequest(offset=int(offsets[p]), size=int(sizes[p]), stride=stride, count=int(c))
        )
    return out


@dataclass(frozen=True)
class StridedCoalescing:
    """Aggregate effect of a strided interface on a whole trace."""

    simple_requests: int
    strided_requests: int
    bytes_transferred: int
    runs_by_length: dict[int, int]

    @property
    def reduction_factor(self) -> float:
        """How many simple requests one strided request replaces on
        average — the overhead reduction §5 promises."""
        if self.strided_requests == 0:
            return 1.0
        return self.simple_requests / self.strided_requests

    @property
    def fraction_coalesced(self) -> float:
        """Fraction of simple requests absorbed into runs of length > 1."""
        if self.simple_requests == 0:
            return 0.0
        singles = self.runs_by_length.get(1, 0)
        return 1.0 - singles / self.simple_requests


def coalesce_trace(frame: TraceFrame) -> StridedCoalescing:
    """Coalesce every (file, node) stream in the trace and aggregate.

    Reads and writes are coalesced separately within a stream (a strided
    interface call is one direction of transfer).
    """
    with obs.span("strided/coalesce"):
        tr = frame.transfers
        if len(tr) == 0:
            raise AnalysisError("no transfers in trace")
        # one stable sort groups the (file, node, kind) streams, each
        # kept in trace order
        tr = tr[np.lexsort((tr["kind"], tr["node"], tr["file"]))]
        change = np.ones(len(tr), dtype=bool)
        change[1:] = (
            (tr["file"][1:] != tr["file"][:-1])
            | (tr["node"][1:] != tr["node"][:-1])
            | (tr["kind"][1:] != tr["kind"][:-1])
        )
        starts = np.flatnonzero(change)
        ends = np.append(starts[1:], len(tr))

        offsets = tr["offset"]
        sizes = tr["size"]
        run_starts: list[np.ndarray] = []
        run_counts: list[np.ndarray] = []
        for a, b in zip(starts.tolist(), ends.tolist()):
            s, c = coalesce_runs(offsets[a:b], sizes[a:b])
            run_starts.append(s + a)
            run_counts.append(c)
        all_starts = np.concatenate(run_starts)
        all_counts = np.concatenate(run_counts)

        run_sizes = sizes[all_starts].astype(np.int64)
        lengths, length_counts = np.unique(all_counts, return_counts=True)
        return StridedCoalescing(
            simple_requests=len(tr),
            strided_requests=int(len(all_starts)),
            bytes_transferred=int((run_sizes * all_counts).sum()),
            runs_by_length={
                int(l): int(c) for l, c in zip(lengths.tolist(), length_counts.tolist())
            },
        )
