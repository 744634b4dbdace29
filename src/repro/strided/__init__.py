"""Strided-request coalescing — the paper's §5 interface recommendation.

The paper's closing argument: since most files are accessed with one or
two request sizes and at most one interval size, the file-system
interface should let a program express a whole regular pattern as one
*strided request* instead of a stream of small calls — "effectively
increasing the request size, lowering overhead, and perhaps eliminating
the need for compute-node buffers".

This package quantifies that recommendation on our traces: it detects
maximal constant-(size, stride) runs in each (file, node) request stream
and reports how many requests a strided interface would have saved.
"""

from repro.strided.detect import (
    StridedCoalescing,
    coalesce_runs,
    coalesce_stream,
    coalesce_trace,
)
from repro.strided.requests import StridedRequest

__all__ = [
    "StridedCoalescing",
    "StridedRequest",
    "coalesce_runs",
    "coalesce_stream",
    "coalesce_trace",
]
